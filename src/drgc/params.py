"""The paper's parameters, without numpy: intersection arrays, the catalog
manifest and the search configuration.

Everything here is exact stdlib arithmetic over small tuples and the text
of manifest.tsv, so listing the catalog, parsing an array or checking a
SearchConfig imports no numpy module.  The graph, catalog and search
modules import these names back, so drgc.graph.IntersectionArray,
drgc.catalog.catalog_list and drgc.search.SearchConfig name the same
objects.  CatalogEntry.family imports families (and so numpy) only when it
is read.

The manifest is read once per data directory, so that a change of
DRGC_DATA_DIR reads the files found there; catalog.catalog_load checks every
graph it builds against its entry's array and theta_1.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (Acyclic, DataCorrupt, NotDistanceRegular, RangeError,
                     TooLarge, UnknownName)
from .exact import SqrtVal

if TYPE_CHECKING:
    from .families import FamilySpec

EXACT_CAP_HARD = 30
SEED_MAX = 2 ** 32 - 1     # the largest seed of a Mersenne Twister stream


@dataclass(frozen=True)
class IntersectionArray:
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        b, c = self.b, self.c
        D = len(b)
        if len(c) != D or D < 1:
            raise NotDistanceRegular(f"array length mismatch: {b} {c}")
        k = b[0]
        if c[0] != 1:
            raise NotDistanceRegular(f"c_1 = {c[0]} != 1")
        for i in range(1, D):
            if b[i] > b[i - 1] or (i == 1 and b[1] >= b[0]):
                raise NotDistanceRegular(f"b not decreasing: {b}")
            if c[i] < c[i - 1]:
                raise NotDistanceRegular(f"c not increasing: {c}")
        if b[-1] < 1:
            raise NotDistanceRegular(f"b_{D-1} = {b[-1]} < 1")
        for i in range(D):
            for j in range(1, D + 1):
                if i + j <= D and b[i] < c[j - 1]:
                    raise NotDistanceRegular(f"b_{i} < c_{j} with i+j <= D")
        for i in range(D + 1):
            if self.a(i) < 0:
                raise NotDistanceRegular(f"a_{i} = {self.a(i)} < 0")
        ks = [1]
        for i in range(D):
            num = ks[i] * b[i]
            if num % c[i] != 0:
                raise NotDistanceRegular(f"sphere size k_{i+1} not integral")
            ks.append(num // c[i])

    @property
    def D(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b[0]

    def bi(self, i: int) -> int:
        return self.b[i] if i < self.D else 0

    def ci(self, i: int) -> int:
        return 0 if i == 0 else self.c[i - 1]

    def a(self, i: int) -> int:
        return self.k - self.bi(i) - self.ci(i)

    def sphere_sizes(self) -> tuple[int, ...]:
        ks = [1]
        for i in range(self.D):
            ks.append(ks[i] * self.b[i] // self.c[i])
        return tuple(ks)

    @property
    def v(self) -> int:
        return sum(self.sphere_sizes())

    def is_bipartite(self) -> bool:
        return all(self.a(i) == 0 for i in range(self.D + 1))

    def girth(self) -> int:
        """The girth: the least of 2i + 1 over a_i > 0 (an edge inside a
        sphere of radius i) and 2i over c_i > 1 (two geodesics to one vertex
        at distance i); every vertex lies on such a cycle."""
        for i in range(1, self.D + 1):
            if self.ci(i) > 1:
                return 2 * i
            if self.a(i) > 0:
                return 2 * i + 1
        raise Acyclic(f"{self} has no cycle")

    def is_antipodal(self) -> bool:
        # distance-D fibres: b_i = c_{D-i} for all i except possibly i = floor(D/2)
        return all(self.bi(i) == self.ci(self.D - i)
                   for i in range(self.D) if i != self.D // 2)

    def __str__(self):
        return "{%s;%s}" % (",".join(map(str, self.b)), ",".join(map(str, self.c)))

    @staticmethod
    def parse(text: str) -> "IntersectionArray":
        text = text.strip().strip("{}")
        bs, cs = text.split(";")
        return IntersectionArray(tuple(int(x) for x in bs.split(",")),
                                 tuple(int(x) for x in cs.split(",")))


@dataclass(frozen=True)
class SearchConfig:
    exact_cap: int = 24
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)

    def __post_init__(self):
        if self.exact_cap > EXACT_CAP_HARD:
            raise TooLarge(f"exact_cap {self.exact_cap} exceeds {EXACT_CAP_HARD}")
        for s in self.seeds:
            if not 0 <= s <= SEED_MAX:
                raise RangeError(f"seed {s} outside 0..{SEED_MAX}")


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
            from .families import FamilySpec   # numpy: loaded on first use
            return FamilySpec.parse(self.graphref[len("family:"):])
        return None

    @property
    def lambda1(self) -> SqrtVal:
        k = self.array.k
        return (SqrtVal(k) - self.theta1) / k


# keyed by the data directory, as catalog's graph cache is
_manifests: dict[pathlib.Path, dict[str, CatalogEntry]] = {}
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


def catalog_entry(name: str) -> CatalogEntry:
    entries = _load_manifest()
    if name not in entries:
        raise UnknownName(f"no catalog entry {name!r}")
    return entries[name]
