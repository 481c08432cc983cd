"""drgc benchmark: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (target lists frozen in ``frozen.json``, see ``workload.py``):

* ``exact-small``: the 34 default targets with n <= 24.  Exact subset
  enumeration runs on every one and refinement never does; this is where a
  faster or deduplicated exact oracle shows.
* ``refine-mid``: the 43 default targets with 24 < n <= 256.  Iterated local
  refinement dominates and the exact oracle never runs; this is where a
  faster refinement shows.  It holds the OPEN graph flag-gh22.
* ``large-dense``: the three default targets with n > 256 plus johnson:13,6
  and foldedcube:12.  Construction, the n x n intersection-array check and
  the dense eigensolves dominate; this is where the n x n memory wall shows.

Load shape: a closed loop with one client.  One target is in flight at a
time and every pass runs in a fresh child process (``worker.py``).

``--trace 0`` runs untraced passes of the workload: one, and another as long
as the longest pass so far still fits into ``--seconds``, and reports medians
over the passes.  Before every pass, and after the last until there are
``SETUP_SAMPLES``, it times a fresh interpreter that imports drgc and parses
the catalog manifest; ``setup_s`` is the median of those times.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of ``tracer.py``.
Every record of every pass goes through the correctness gate.

Output: a human-readable summary, then as the last line of stdout one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run record (machine, per-pass numbers, report sha256s,
gate failures, top-10 lists) is written to ``.perfbench/`` in the checkout.
Exits 1 without a result when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("exact-small", "refine-mid", "large-dense")
SETUP_SAMPLES = 7          # at least this many fresh interpreters per run
SETUP_PER_PASS = 2
RUN_LIMIT_S = 170          # every child is killed past this point of the run
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import drgc; "
              "drgc.catalog_list()")


class BenchError(Exception):
    pass


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = perf_counter() + RUN_LIMIT_S

    def child(self, args: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{args[0]} timed out") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"{args[0]} exited {proc.returncode}: {tail}")
        return proc

    def setup_sample(self) -> float:
        t0 = perf_counter()
        self.child(["-c", SETUP_CODE])
        return perf_counter() - t0

    def one_pass(self, trace: bool) -> dict:
        args = [str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--out", str(OUT)]
        t0 = perf_counter()
        proc = self.child(args + (["--trace"] if trace else []))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["elapsed_s"] = perf_counter() - t0
        return result


def end_to_end(run: Run, seconds: float):
    # setup samples are spread over the run, before every pass and after the
    # last, so that a slow spell of the host does not hit all of them at once
    setup, passes, rounds = [], [], []
    start = perf_counter()
    while not rounds or perf_counter() - start + max(rounds) <= seconds:
        t0 = perf_counter()
        setup += [run.setup_sample() for _ in range(SETUP_PER_PASS)]
        passes.append(run.one_pass(trace=False))
        rounds.append(perf_counter() - t0)
    while len(setup) < SETUP_SAMPLES:
        setup.append(run.setup_sample())

    def med(key):
        return median(p[key] for p in passes)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MiB"),
        "pass_frac": (1 - failed / attempted, "fraction"),
        "settled_frac": (med("settled_frac"), "fraction"),
        "best_over_lambda1_mean": (med("best_over_lambda1_mean"), "ratio"),
    }
    info = {"fail_frac": (failed / attempted, "fraction"),
            "exact_frac": (med("exact_frac"), "fraction"),
            "cpu_s": (med("cpu_s"), "s")}
    return metrics, info, passes, {"setup_samples_s": setup}


def traced(run: Run):
    plain = run.one_pass(trace=False)
    spans = run.one_pass(trace=True)
    metrics = {name: tuple(v) for name, v in spans["layers"].items()}
    metrics["trace.overhead_frac"] = (spans["wall_s"] / plain["wall_s"] - 1,
                                      "fraction")
    return metrics, {}, [plain, spans], {"top10": spans["top10"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    run = Run(args.workload, args.seed)
    try:
        OUT.mkdir(exist_ok=True)
        run.child([str(HERE / "selftest.py")])
        metrics, info, passes, extra = traced(run) if args.trace \
            else end_to_end(run, args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record_path = OUT / (f"record-{args.workload}-seed{args.seed}"
                         f"{'-trace' if args.trace else ''}.json")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": passes[0]["machine"],
        "metrics": metrics, "info": info, **extra,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "elapsed_s",
                                      "peak_rss_mb", "attempted", "failed",
                                      "failures", "sha256")}
                   for p in passes],
    }
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"drgc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} pass(es), {failed} of {attempted} target runs failed")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    for p in passes:
        for target, problems in p["failures"].items():
            print(f"  FAILED {target}: {'; '.join(problems)}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
