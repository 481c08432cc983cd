"""Workloads, seeding and the correctness gate of the drgc benchmark.

The three target lists in ``frozen.json`` split ``report.default_targets()``
by vertex count as it stood when the benchmark was defined:

* ``exact-small``  n <= 24: exact subset enumeration settles every target;
* ``refine-mid``   24 < n <= 256: sweep plus iterated local refinement;
* ``large-dense``  n > 256, plus johnson:13,6 (n = 1716, under the dense
  cross-check cap) and foldedcube:12 (n = 2048, over it), so both sides of
  that size-based choice run.

The lists are frozen so that no later change can move a target between
workloads.  ``frozen.json`` also records every target's vertex count, status
and exact Cheeger constant at that commit; the gate compares against them.
"""

from __future__ import annotations

import json
import pathlib
import random
from fractions import Fraction

FROZEN_PATH = pathlib.Path(__file__).with_name("frozen.json")
EXACT_N = 24          # targets up to this size carry an exact h at the seed
EXTRA_TARGETS = ("johnson:13,6", "foldedcube:12")


def load_frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text(encoding="utf-8"))


def plan(workload: str, seed: int, frozen: dict):
    """(SearchConfig, targets) for one run.

    Seed 0 is exactly ``SearchConfig()`` over the frozen target order, i.e.
    what ``drgc verify-all`` runs.  Any other seed draws the eight refine
    seeds and the target order from ``random.Random(seed)``.
    """
    from drgc.search import SearchConfig

    targets = list(frozen["workloads"][workload])
    if seed == 0:
        return SearchConfig(), targets
    rng = random.Random(seed)
    seeds = tuple(rng.randrange(1 << 31) for _ in range(8))
    rng.shuffle(targets)
    return SearchConfig(seeds=seeds), targets


def recount(adj, S) -> tuple[int, int]:
    """(boundary, vol) of S, counted from the adjacency lists."""
    members = set(S)
    boundary = vol = 0
    for u in members:
        vol += len(adj[u])
        boundary += sum(1 for w in adj[u] if w not in members)
    return boundary, vol


def _ratio_text(r) -> str | None:
    return None if r is None else f"{r['num']}/{r['den']}"


def gate(record: dict, adj, seed_state: dict) -> list[str]:
    """Reasons the record fails the correctness gate; empty when it passes.

    ``adj`` is the target graph's adjacency lists (None for a
    parameters-only target) and ``seed_state`` the frozen entry of the target.
    """
    problems = []
    status = record["status"]
    if status == "VIOLATION":
        problems.append("status VIOLATION")
    elif seed_state["status"] == "OK" and status != "OK":
        problems.append(f"status {status}, was OK at the seed")
    if record["n"] != seed_state["n"]:
        problems.append(f"n = {record['n']}, frozen n = {seed_state['n']}")
    if seed_state["n"] <= EXACT_N:
        got = _ratio_text(record["exact_h"])
        if got != seed_state["exact_h"]:
            problems.append(f"exact_h {got}, frozen {seed_state['exact_h']}")
    crosscheck = record["spectrum_crosscheck"]
    if not (crosscheck is True or crosscheck is None):
        problems.append(f"spectrum_crosscheck {crosscheck!r}")
    certs = list(record["certificates"])
    if record["best"] is not None and record["best"] not in certs:
        certs.append(record["best"])
    if certs and adj is None:
        problems.append("certificates without a graph to recount them on")
        return problems
    total = sum(len(nbrs) for nbrs in adj) if adj is not None else 0
    for c in certs:
        problems.extend(_certificate_problems(c, adj, total))
    return problems


def _certificate_problems(c: dict, adj, total: int) -> list[str]:
    """Why certificate ``c`` does not hold on the graph ``adj``.

    The program's ratio is boundary over the volume of the smaller side, and
    it reports S as that side, so S must be a non-empty set of vertices whose
    volume is at most half the total.
    """
    S, n = c["S"], len(adj)
    label = f"{c['method']} certificate"
    if not S:
        return [f"{label} has an empty S"]
    if any(type(u) is not int or not 0 <= u < n for u in S):
        return [f"{label} names a vertex outside 0..{n - 1}"]
    if len(set(S)) != len(S):
        return [f"{label} repeats a vertex of S"]
    boundary, vol = recount(adj, S)
    if vol == 0 or 2 * vol > total:
        return [f"{label} S has volume {vol}, not in 1..{total // 2}"]
    if c["ratio"]["den"] == 0:
        return [f"{label} has a ratio with denominator 0"]
    ratio = Fraction(c["ratio"]["num"], c["ratio"]["den"])
    if (c["boundary"], c["volS"]) != (boundary, vol) or \
            ratio != Fraction(boundary, vol):
        return [f"{label} reads {c['boundary']}/{c['volS']} = {ratio}, "
                f"recount gives {boundary}/{vol}"]
    return []
