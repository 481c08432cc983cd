"""The package's public names and what importing it loads."""

import hashlib
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import drgc
from drgc import params

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

EXPORTS = {
    "AnalyticBound", "CatalogEntry", "CheegerWindow", "CutCertificate",
    "CutStats", "FamilySpec", "Graph", "IntersectionArray", "SearchConfig",
    "Spectrum", "SqrtVal", "TheoryValues", "antipodal_fibre_cut",
    "at_most_lambda1", "avg_valency_certificate", "balanced_partition_bound",
    "best_upper_bound", "bfs_distances", "bipartite_diameter3_verdict",
    "bipartite_graph", "bipartite_half_cut", "catalog_list", "catalog_load",
    "cheeger_window", "construct", "cut_stats", "dense_spectrum", "descendant",
    "doubled_grassmann_verdict", "drg_spectrum", "exact_cheeger",
    "exact_theta1", "g6_decode", "g6_encode", "girth", "girth_cycle_cut",
    "gq33_incidence_witness", "gq_gh_incidence_verdict", "greedy_dense_subset",
    "intersection_array", "line_graph", "local_refine", "srg_certify",
    "sweep_cut", "theory_values", "twelve_cage_witness",
}
SUBMODULES = {"algebra", "catalog", "errors", "exact", "families", "graph",
              "search", "spectral", "witness"}
# modules that `import drgc` and the numpy-free commands must not load
HEAVY = {"numpy", "drgc.graph", "drgc.search"}
# sha256 of `drgc list` over the packaged manifest (26 lines)
LIST_SHA256 = "77e834371fc55c8d1a3cfc294fdd427055f4a20f5177b6636ce6959b186674bb"


def test_public_names_resolve_from_their_modules():
    assert len(EXPORTS) == 46 and set(drgc.__all__) == EXPORTS
    assert SUBMODULES.isdisjoint(drgc.__all__)
    assert EXPORTS <= set(dir(drgc))
    for name in drgc.__all__:
        home = importlib.import_module(f"drgc.{drgc._MODULE_OF[name]}")
        assert getattr(drgc, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        drgc.no_such_name


def test_parameter_layer_names_keep_their_old_import_paths():
    from drgc import catalog, graph, search
    assert graph.IntersectionArray is params.IntersectionArray
    assert catalog.CatalogEntry is params.CatalogEntry
    assert catalog.catalog_list is params.catalog_list
    assert catalog.catalog_entry is params.catalog_entry
    assert catalog.data_dir is params.data_dir
    assert search.SearchConfig is params.SearchConfig
    assert (search.EXACT_CAP_HARD, search.SEED_MAX) == (30, 2 ** 32 - 1)


def _modules_at_exit(code, *argv):
    """Run code in a fresh interpreter with argv; (process, the names in
    its sys.modules at exit)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.pop("DRGC_DATA_DIR", None)
    probe = ("import atexit, sys\n"
             "atexit.register(lambda: print('modules:', *sys.modules, "
             "file=sys.stderr))\n")
    proc = subprocess.run([sys.executable, "-c", probe + code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    last = proc.stderr.splitlines()[-1].split()
    assert last[0] == "modules:", proc.stderr[-2000:]
    return proc, set(last[1:])


# what `python -m drgc.cli` runs
CLI = "import runpy\nrunpy.run_module('drgc.cli', run_name='__main__', alter_sys=True)"


@pytest.mark.parametrize("code, argv, status", [
    ("import drgc\ndrgc.catalog_list()", (), 0),
    (CLI, ("list",), 0),
    (CLI, ("--help",), 0),
    (CLI, ("verify", "--format", "xml", "petersen"), 1)],
    ids=("catalog_list", "list", "help", "usage-error"))
def test_parameter_commands_do_not_import_numpy(code, argv, status):
    proc, modules = _modules_at_exit(code, *argv)
    assert proc.returncode == status, proc.stderr[-2000:]
    assert "drgc.params" in modules and not modules & HEAVY
    if argv == ("list",):
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == LIST_SHA256


def test_a_command_that_needs_numpy_loads_it():
    proc, modules = _modules_at_exit(CLI, "spectrum", "heawood")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert HEAVY <= modules
