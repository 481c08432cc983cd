"""Command-line interface.

    drgc list
    drgc spectrum <target>
    drgc verify <target> [--seeds 0,1,..] [--exact-cap N] [--format json|csv] [-o FILE]
    drgc verify-all [same options]

Targets are catalog names (``drgc list``), family specs like ``johnson:6,3``,
or raw graph6 strings.  Exit codes: 0 = no violation, 2 = violation found
(a counterexample with k >= 3; a polygon whose exact h exceeds lambda_1 is
reported OUT_OF_SCOPE and exits 0), 1 = operational or usage error.
verify-all reports a target that fails as an ERROR record, verifies the
rest, and then exits 1 (2 if it also found a violation).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DrgcError, RangeError
from .params import EXACT_CAP_HARD, SEED_MAX, SearchConfig, catalog_list


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    try:
        return SearchConfig(seeds=seeds).seeds
    except RangeError as exc:   # a seed outside the Mersenne Twister's range
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p):
    d = SearchConfig()
    p.add_argument("--seeds", type=_seed_list, default=d.seeds,
                   help=f"comma-separated RNG seeds, each 0..{SEED_MAX} "
                        "(default %(default)s)")
    p.add_argument("--exact-cap", type=int, default=d.exact_cap,
                   help="max n for exact enumeration (default %(default)s, "
                        f"hard cap {EXACT_CAP_HARD})")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", default=None, help="write report to a file")


def _config(args) -> SearchConfig:
    return SearchConfig(exact_cap=args.exact_cap, seeds=args.seeds)


def _write(data: bytes, output):
    if output:
        with open(output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drgc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog entries")

    p_spec = sub.add_parser("spectrum", help="print the spectrum of a target")
    p_spec.add_argument("target")

    p_verify = sub.add_parser("verify", help="run the verification pipeline on one target")
    p_verify.add_argument("target")
    _add_common(p_verify)

    p_all = sub.add_parser("verify-all", help="verify the whole catalog and family grid")
    _add_common(p_all)
    return parser


def main(argv=None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as in `drgc list | head`: send what
        # is still buffered to devnull so that the flush at exit prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _main(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        if args.command == "list":
            for e in catalog_list():
                print(f"{e.name:22s} {e.source:16s} {str(e.array):42s} "
                      f"status={e.status}")
            return 0
        # report and spectral load numpy: only the commands below import them
        if args.command == "spectrum":
            from .report import _resolve
            from .spectral import drg_spectrum
            ia = _resolve(args.target)[3]
            sp = drg_spectrum(ia)
            print(f"array: {ia}")
            print("thetas:", " ".join(f"{t:.12g}" for t in sp.thetas))
            print("lambdas:", " ".join(f"{t:.12g}" for t in sp.lambdas))
            return 0
        from .report import SCHEMA, emit, verify_all, verify_one
        if args.command == "verify":
            record = verify_one(args.target, _config(args))
            report = {"schema": SCHEMA, "records": [record]}
            _write(emit(report, args.format), args.output)
            return 2 if record["status"] == "VIOLATION" else 0
        if args.command == "verify-all":
            report = verify_all(_config(args))
            _write(emit(report, args.format), args.output)
            summary = ", ".join(f"{k}={v}" for k, v in report["counts"].items())
            print(f"\n{summary}", file=sys.stderr)
            if report["counts"]["VIOLATION"]:
                return 2
            return 1 if report["counts"].get("ERROR") else 0
    except DrgcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
