"""Named graphs: constructed from incidence geometry where a recipe exists,
loaded from embedded graph6 data otherwise.

Trust is established exclusively at load time: every graph must reproduce the
manifest's intersection array and second eigenvalue, so embedded data can
never silently drift.  One entry (gh33-incidence) is parameters-only and has
no graph: its manifest theta_1 is checked against its array, and the report
gives it the same array-level bounds as a graph with that array.

The manifest itself (CatalogEntry, catalog_list, catalog_entry, data_dir)
is read by drgc.params, which needs no numpy, and is re-exported here; this
module builds the graphs and checks them against their entries.
"""

from __future__ import annotations

import pathlib

import numpy as np

from .algebra import enumerate_subspaces, field, isotropic_subspaces
from .errors import DataCorrupt, UnknownName
from .families import FamilySpec, bipartite_graph, construct, incidence_block
from .graph import (Graph, adjacency_matrix, g6_decode, intersection_array,
                    line_graph)
# catalog_list is re-exported: the manifest half of the catalog is params'
from .params import (CatalogEntry, IntersectionArray, catalog_entry,  # noqa: F401
                     catalog_list, data_dir)
from .spectral import drg_spectrum, exact_theta1


def _family(spec: str):
    return lambda: construct(FamilySpec.parse(spec))


def _points_against(q: int, lines):
    """Incidence block between the points of PG(n-1,q) and subspaces of F^n."""
    F = field(q)
    return incidence_block(F, enumerate_subspaces(len(lines[0][0]), 1, F), lines)


def _symplectic_gq(q: int) -> Graph:
    """Incidence graph of the generalized quadrangle W(3,q): the points of
    PG(3,q) against the totally isotropic lines."""
    return bipartite_graph(_points_against(q, isotropic_subspaces(field(q), 4, 2)))


def _pg22_nonincidence() -> Graph:
    """Points against lines of the Fano plane, adjacent when not incident."""
    lines = enumerate_subspaces(3, 2, field(2))
    return bipartite_graph(~_points_against(2, lines))


def _ag2_minus_class(q: int) -> Graph:
    """Incidence graph of the affine plane AG(2,q) less its vertical parallel
    class: point (x, y) is on line (m, b) when y = mx + b.  Points (rows) and
    lines (columns) are numbered x q + y and m q + b."""
    F = field(q)
    x, y = np.divmod(np.arange(q * q), q)
    m, b = x, y
    return bipartite_graph(F.add_table[F.mul_table[m, x[:, None]], b] == y[:, None])


_BUILDERS = {
    "pg2-incidence-2": _family("doubledgrassmann:2,1"),
    "pg2-incidence-3": _family("doubledgrassmann:3,1"),
    "nonincidence-pg22": _pg22_nonincidence,
    "gq-incidence-2": lambda: _symplectic_gq(2),
    "gq-incidence-3": lambda: _symplectic_gq(3),
    "ag24-minus-class": lambda: _ag2_minus_class(4),
    "pappus": lambda: _ag2_minus_class(3),
    "petersen": _family("odd:3"),
    "shrikhande": _family("doob:1,0"),
    "k55-minus-matching": lambda: bipartite_graph(~np.eye(5, dtype=bool)),
}

# keyed by the data directory, as params' manifest cache is, so that a change
# of DRGC_DATA_DIR reads and checks the files found there
_graphs: dict[tuple[pathlib.Path, str], Graph] = {}


def _build(entry: CatalogEntry) -> Graph:
    ref = entry.graphref
    kind, _, arg = ref.partition(":")
    if kind == "g6":
        text = (data_dir() / arg).read_text(encoding="ascii")
        return g6_decode(text)
    if kind == "builder":
        return _BUILDERS[arg]()
    if kind == "family":
        return construct(FamilySpec.parse(arg))
    if kind == "line":
        return line_graph(catalog_load(arg)[0])
    if kind == "double":   # the bipartite double: (u, 0) ~ (v, 1) when u ~ v
        return bipartite_graph(adjacency_matrix(catalog_load(arg)[0], bool))
    raise DataCorrupt(f"{entry.name}: bad graphref {ref!r}")


def catalog_load(name: str):
    """Verified (Graph, CatalogEntry) pair; raises for the parameters-only entry."""
    entry = catalog_entry(name)
    if entry.source == "parameters-only":
        raise UnknownName(f"{name} is parameters-only (no graph)")
    key = (data_dir(), name)
    if key not in _graphs:
        g = _build(entry)
        ia = intersection_array(g)
        if ia != entry.array:
            raise DataCorrupt(f"{name}: array {ia} != expected {entry.array}")
        checked_array(name)
        _graphs[key] = g
    return _graphs[key], entry


def checked_array(name: str) -> IntersectionArray:
    """The manifest's intersection array of an entry, once the manifest's
    theta_1 is that array's: to 1e-9, and exactly where exact_theta1 finds
    it.  catalog_load also checks that a graph has the array."""
    entry = catalog_entry(name)
    t1 = drg_spectrum(entry.array).theta1
    if abs(t1 - float(entry.theta1)) > 1e-9:
        raise DataCorrupt(f"{name}: theta1 {t1} != expected {float(entry.theta1)}")
    exact = exact_theta1(entry.array)
    if exact is not None and exact != entry.theta1:
        raise DataCorrupt(f"{name}: exact theta1 {exact} != {entry.theta1}")
    return entry.array
