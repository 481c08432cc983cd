"""Distance-regular graphs, their spectra, and Cheeger-constant certificates."""

__version__ = "0.1.0"

from .exact import SqrtVal
from .graph import (CutStats, Graph, IntersectionArray, bfs_distances,
                    cut_stats, g6_decode, g6_encode, girth, intersection_array,
                    line_graph)
from .families import (FamilySpec, TheoryValues, bipartite_graph, construct,
                       descendant, theory_values)
from .spectral import (CheegerWindow, Spectrum, at_most_lambda1, cheeger_window,
                       dense_spectrum, drg_spectrum, exact_theta1)
from .search import SearchConfig, best_upper_bound, exact_cheeger, local_refine, sweep_cut
from .witness import (AnalyticBound, CutCertificate, antipodal_fibre_cut,
                      avg_valency_certificate, balanced_partition_bound,
                      bipartite_diameter3_verdict, bipartite_half_cut,
                      doubled_grassmann_verdict, girth_cycle_cut,
                      gq33_incidence_witness, gq_gh_incidence_verdict,
                      greedy_dense_subset, srg_certify, twelve_cage_witness)
from .catalog import CatalogEntry, catalog_list, catalog_load

__all__ = [name for name in dir() if not name.startswith("_")]
