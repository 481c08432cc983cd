"""Distance-regular graphs, their spectra, and Cheeger-constant certificates.

``import drgc`` imports no submodule.  Each public name is imported from
the module named in ``_HOMES`` when it is first read (PEP 562), so
``drgc.catalog_list()`` or ``drgc.IntersectionArray`` loads only the
numpy-free ``params`` layer (with ``errors`` and ``exact``), and a name from
any other module loads numpy with it.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "exact": ("SqrtVal",),
    "params": ("CatalogEntry", "IntersectionArray", "SearchConfig",
               "catalog_list"),
    "graph": ("CutStats", "Graph", "bfs_distances", "cut_stats", "g6_decode",
              "g6_encode", "girth", "intersection_array", "line_graph"),
    "families": ("FamilySpec", "TheoryValues", "bipartite_graph", "construct",
                 "descendant", "theory_values"),
    "spectral": ("CheegerWindow", "Spectrum", "at_most_lambda1",
                 "cheeger_window", "dense_spectrum", "drg_spectrum",
                 "exact_theta1"),
    "search": ("best_upper_bound", "exact_cheeger", "local_refine",
               "sweep_cut"),
    "witness": ("AnalyticBound", "CutCertificate", "antipodal_fibre_cut",
                "avg_valency_certificate", "balanced_partition_bound",
                "bipartite_diameter3_verdict", "bipartite_half_cut",
                "doubled_grassmann_verdict", "girth_cycle_cut",
                "gq33_incidence_witness", "gq_gh_incidence_verdict",
                "greedy_dense_subset", "srg_certify", "twelve_cage_witness"),
    "catalog": ("catalog_load",),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
