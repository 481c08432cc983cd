"""Named graphs: constructed from incidence geometry where a recipe exists,
loaded from embedded graph6 data otherwise.

Trust is established exclusively at load time: every graph must reproduce the
manifest's intersection array and second eigenvalue, so embedded data can
never silently drift.  One entry (gh33-incidence) is parameters-only and has
no graph: its manifest theta_1 is checked against its array, and the report
gives it the same array-level bounds as a graph with that array.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import enumerate_subspaces, field, field_tables, isotropic_subspaces
from .errors import DataCorrupt, UnknownName
from .exact import SqrtVal
from .families import FamilySpec, bipartite_graph, construct, incidence_block
from .graph import (Graph, IntersectionArray, adjacency_matrix, g6_decode,
                    intersection_array, line_graph)
from .spectral import drg_spectrum, exact_theta1


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    source: str                       # constructed | embedded | parameters-only
    array: IntersectionArray
    theta1: SqrtVal
    status: str                       # OK | OPEN
    graphref: str

    @property
    def family(self) -> FamilySpec | None:
        if self.graphref.startswith("family:"):
            return FamilySpec.parse(self.graphref[len("family:"):])
        return None

    @property
    def lambda1(self) -> SqrtVal:
        k = self.array.k
        return (SqrtVal(k) - self.theta1) / k


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
    mul, add, _ = field_tables(field(q))
    x, y = np.divmod(np.arange(q * q), q)
    m, b = x, y
    return bipartite_graph(add[mul[m, x[:, None]], b] == y[:, None])


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

# both caches are keyed by the data directory, so that a change of
# DRGC_DATA_DIR reads and checks the files found there
_manifests: dict[pathlib.Path, dict[str, CatalogEntry]] = {}
_graphs: dict[tuple[pathlib.Path, str], Graph] = {}


_PACKAGED = pathlib.Path(__file__).parent / "data" / "catalog"


def data_dir() -> pathlib.Path:
    override = os.environ.get("DRGC_DATA_DIR")
    return pathlib.Path(override) if override else _PACKAGED


def _parse_theta1(text: str) -> SqrtVal:
    u, w, s = text.split("|")
    return SqrtVal(Fraction(u), Fraction(w), int(s))


def _load_manifest() -> dict[str, CatalogEntry]:
    root = data_dir()
    if root in _manifests:
        return _manifests[root]
    path = root / "manifest.tsv"
    entries: dict[str, CatalogEntry] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise DataCorrupt(f"manifest line has {len(fields)} fields: {line!r}")
        name, source, array, theta1, status, graphref = fields
        entries[name] = CatalogEntry(name, source, IntersectionArray.parse(array),
                                     _parse_theta1(theta1), status, graphref)
    _manifests[root] = entries
    return entries


def catalog_list() -> list[CatalogEntry]:
    """All entries in manifest order (including the parameters-only one)."""
    return list(_load_manifest().values())


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


def catalog_entry(name: str) -> CatalogEntry:
    entries = _load_manifest()
    if name not in entries:
        raise UnknownName(f"no catalog entry {name!r}")
    return entries[name]
