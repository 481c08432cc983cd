"""Self-test of the drgc benchmark; exits non-zero on the first failed check.

    python3 perfbench/selftest.py

Checks that the frozen target lists still split ``report.default_targets()``
by vertex count (plus the two extra large targets), that seed 0 is exactly
``SearchConfig()``, and that the correctness gate passes an honest record and
rejects one with a tampered boundary, with S replaced by its complement, all
of V, an empty set or a negative vertex id, and one with a flipped status.
"""

from __future__ import annotations

import copy
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workload  # noqa: E402  (a sibling file of this script)


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"benchmark self-test failed: {what}")


def main() -> int:
    from drgc.catalog import catalog_load
    from drgc.report import default_targets
    from drgc.search import SearchConfig

    frozen = workload.load_frozen()
    lists, state = frozen["workloads"], frozen["seed_state"]
    default = default_targets()
    extras = list(workload.EXTRA_TARGETS)
    check(set(default) | set(extras) == set(state), "frozen seed state covers the targets")
    n = {t: state[t]["n"] for t in state}
    check(lists["exact-small"] == [t for t in default if n[t] <= 24],
          "exact-small is the n <= 24 split")
    check(lists["refine-mid"] == [t for t in default if 24 < n[t] <= 256],
          "refine-mid is the 24 < n <= 256 split")
    check(lists["large-dense"] == [t for t in default if n[t] > 256] + extras,
          "large-dense is the n > 256 split plus johnson:13,6 and foldedcube:12")

    for name, targets in lists.items():
        config, order = workload.plan(name, 0, frozen)
        check(config == SearchConfig() and order == targets,
              f"seed 0 of {name} is SearchConfig() in frozen order")
        config, order = workload.plan(name, 7, frozen)
        check(config != SearchConfig() and sorted(order) == sorted(targets),
              f"seed 7 of {name} draws its own refine seeds over the same targets")

    # a record built by hand, so that the gate is tested apart from the program
    adj = catalog_load("petersen")[0].adj
    S = [0, 1, 2, 3]      # volume 12 of 30: the complement is the larger side
    boundary, vol = workload.recount(adj, S)
    cert = {"method": "selftest", "S": S, "boundary": boundary, "volS": vol,
            "ratio": {"num": boundary, "den": vol}}
    record = {"status": "OK", "n": 10, "exact_h": {"num": 1, "den": 3},
              "spectrum_crosscheck": True, "certificates": [cert], "best": cert}
    check(workload.gate(record, adj, state["petersen"]) == [],
          "gate passes the honest petersen record")
    tampered = copy.deepcopy(record)
    tampered["certificates"][0]["boundary"] += 1
    check(workload.gate(tampered, adj, state["petersen"]) != [],
          "gate rejects a tampered boundary")
    everything = list(range(10))
    complement = [u for u in everything if u not in cert["S"]]
    for what, S in (("its complement", complement),
                    ("all of V", everything), ("an empty S", []),
                    ("a negative vertex", [-1, 0, 1, 2, 3])):
        swapped = copy.deepcopy(record)
        b, v = workload.recount(adj, S)
        swapped["certificates"][0].update(
            S=S, boundary=b, volS=v, ratio={"num": b, "den": max(v, 1)})
        check(workload.gate(swapped, adj, state["petersen"]) != [],
              f"gate rejects a certificate whose S is {what}")
    for status in ("OPEN", "VIOLATION"):
        flipped = dict(record, status=status)
        check(workload.gate(flipped, adj, state["petersen"]) != [],
              f"gate rejects status flipped to {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
