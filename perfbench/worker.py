"""One pass of a drgc benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

The timed region drives ``report.verify_one`` over the workload's targets,
as ``verify_all`` does but target by target, so that a raising target is
counted as a failure and the pass goes on; it then has ``verify_all``
assemble the report from those records and writes it as JSON and CSV.
Afterwards every record goes through the correctness gate, and the pass
prints one JSON line with its measurements.  With ``--trace`` the timing
wrappers of ``tracer.py`` are installed first and the spans are written to
DIR.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import pathlib
import platform
import resource
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workload  # noqa: E402  (a sibling file of this script)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        maps = pathlib.Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path, key=None):
    try:
        text = pathlib.Path(path).read_text()
    except OSError:
        return None
    if key is None:
        return text.strip()
    for line in text.splitlines():
        if line.startswith(key):
            return line.split(":", 1)[1].strip()
    return None


def _cpu_s() -> float:
    """User plus system CPU time of this process, all its threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def machine() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read("/proc/cpuinfo", "model name"),
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


def run_pass(name: str, seed: int, out: pathlib.Path, trace: bool) -> dict:
    import drgc
    from drgc import report

    if pathlib.Path(drgc.__file__).resolve().parent != ROOT / "src" / "drgc":
        raise SystemExit(f"drgc imported from {drgc.__file__}, not from {ROOT / 'src'}")
    frozen = workload.load_frozen()
    config, targets = workload.plan(name, seed, frozen)

    adjacency = {}
    resolve = report._resolve

    def keep_adjacency(target):
        # the gate recounts certificates on these lists; keeping the Graph
        # itself would also keep its cached n x n arrays alive
        resolved = resolve(target)
        adjacency[resolved[0]] = None if resolved[1] is None else resolved[1].adj
        return resolved

    report._resolve = keep_adjacency
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()

    stem = f"{name}-seed{seed}{'-trace' if trace else ''}"
    json_path, csv_path = out / f"{stem}.json", out / f"{stem}.csv"
    done, errors = [], {}
    cpu0 = _cpu_s()
    t0 = perf_counter()
    for target in targets:
        if tracer:
            tracer.target = target
        try:
            done.append((target, report.verify_one(target, config)))
        except Exception as exc:  # one bad target must not end the pass
            errors[target] = f"{type(exc).__name__}: {exc}"
    # the report is assembled by verify_all itself, over the records already
    # computed, so that its sha256 covers the program's own assembly
    computed = dict(done)
    verify_one = report.verify_one
    report.verify_one = lambda target, _config: computed[target]
    try:
        full = report.verify_all(config, list(computed))
    finally:
        report.verify_one = verify_one
    records, counts = full["records"], full["counts"]
    emitted = {}
    for fmt, path in (("json", json_path), ("csv", csv_path)):
        if tracer:
            tracer.target = f"<{fmt} report>"
        emitted[fmt] = report.emit(full, fmt)
        path.write_bytes(emitted[fmt])
    wall = perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = {t: [msg] for t, msg in errors.items()}
    for target, r in done:
        problems = workload.gate(r, adjacency.get(r["id"]),
                                 frozen["seed_state"][target])
        if problems:
            failures[target] = problems
    graph_records = [r for r in records if not r["parameters_only"]]
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(targets),
        "failed": len(failures),
        "failures": failures,
        "settled_frac": counts["OK"] / len(targets),
        "exact_frac": sum(r["exact_h"] is not None for r in graph_records)
        / max(len(graph_records), 1),
        "best_over_lambda1_mean": sum(
            r["best"]["ratio"]["num"] / r["best"]["ratio"]["den"]
            / r["lambda1"]["approx"] for r in graph_records)
        / max(len(graph_records), 1),
        "sha256": {fmt: hashlib.sha256(data).hexdigest()
                   for fmt, data in emitted.items()},
        "machine": machine(),
    }
    if tracer:
        from tracer import layer_metrics
        tracer.write(out / f"{stem}.spans.jsonl")
        result["layers"], result["top10"] = layer_metrics(tracer.spans, records)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, pathlib.Path(args.out), args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
