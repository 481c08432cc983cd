"""Batch verification pipeline and report emission.

verify_one runs the full pipeline on a single target (construct/load, verify
distance-regularity, spectra, every applicable witness, search) and returns a
plain record dict; verify_all runs the catalog plus the family grid, and a
target that raises a DrgcError becomes an ERROR record (id, status, error)
instead of ending the batch.  Reports are fully deterministic: fixed seeds,
fixed field order, no timestamps.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import replace
from fractions import Fraction

from . import __version__
# catalog before search: without a bytecode cache each import compiles its
# module, and compiling families.py (the longest, reached through catalog)
# before search and witness are loaded keeps the peak RSS about 0.4 MiB lower
from .catalog import catalog_entry, catalog_list, catalog_load, checked_array
from . import search
from .errors import DrgcError, MalformedGraph6, UnknownName
from .exact import SqrtVal
from .families import (NO_DESCENDANT, FamilySpec, construct, default_grid,
                       descendant, theory_values)
from .graph import Graph, IntersectionArray, g6_decode, intersection_array
# exact_cheeger and dense_spectrum are not called here (best_upper_bound
# already returns the exact certificate, and spectrum_certified checks the
# spectrum without a dense eigensolve), but they stay bound in this module:
# the benchmark's tracer (perfbench/tracer.py) wraps report.exact_cheeger and
# report.dense_spectrum by name.
from .search import SearchConfig, best_upper_bound, cert_key, exact_cheeger
from .spectral import (at_most_lambda1, dense_spectrum, drg_spectrum,
                       exact_theta1, cheeger_window, spectrum_certified)
from .witness import (AnalyticBound, CutCertificate, GQ33_ARRAY,
                      TWELVE_CAGE_ARRAY, antipodal_fibre_cut,
                      avg_valency_certificate, ball_cut,
                      bipartite_diameter3_verdict, bipartite_half_cut,
                      doubled_grassmann_verdict, girth_cycle_cut,
                      gq33_incidence_witness, gq_gh_incidence_verdict,
                      shilla_cut, srg_certify,
                      triangle_chain_cut, triangle_octagon_cut,
                      twelve_cage_witness)

SCHEMA = 1


def _val_json(x):
    """Exact value as {u, w, s, approx}; floats get approx only."""
    if isinstance(x, SqrtVal):
        u, w, s = x.triple()
        return {"u": str(u), "w": str(w), "s": s,
                "approx": float(f"{float(x):.15g}")}
    if isinstance(x, Fraction):
        return {"u": str(x), "w": "0", "s": 1, "approx": float(f"{float(x):.15g}")}
    if x is None:
        return None
    return {"approx": float(f"{float(x):.15g}")}


def _cert_json(graph_id: str, c: CutCertificate, lam1):
    return {
        "graph": graph_id,
        "method": c.method,
        "S": list(c.S),
        "boundary": c.stats.boundary,
        "volS": c.stats.vol,
        "ratio": {"num": c.ratio.numerator, "den": c.ratio.denominator,
                  "approx": float(f"{float(c.ratio):.15g}")},
        "lambda1": _val_json(lam1),
        "verdict": c.verdict,
        "notes": list(c.notes),
    }


def _bound_json(graph_id: str, b: AnalyticBound):
    val = b.value if isinstance(b.value, (Fraction, SqrtVal)) else Fraction(b.value)
    return {
        "graph": graph_id,
        "method": b.method,
        "value": _val_json(val),
        "lambda1": _val_json(b.lambda1),
        "verdict": b.verdict,
        "trace": list(b.trace),
    }


def _resolve(target: str):
    """Returns (graph_id, Graph | None, FamilySpec | None, IntersectionArray);
    the graph is None only for a parameters-only entry (checked_array)."""
    try:
        entry = catalog_entry(target)
    except UnknownName:
        entry = None
    if entry is not None:
        if entry.source == "parameters-only":
            return target, None, None, checked_array(target)
        graph_id, g, spec = target, catalog_load(target)[0], entry.family
    elif ":" in target:
        spec = FamilySpec.parse(target)
        graph_id, g = str(spec), construct(spec)
    else:
        try:
            g = g6_decode(target)
        except MalformedGraph6 as exc:   # most often a mistyped catalog name
            raise MalformedGraph6(
                f"{target!r} is not a catalog name (see drgc list), a "
                "family spec such as johnson:6,3, or a graph6 string "
                f"({exc})") from exc
        graph_id, spec = f"g6:{target[:24]}", None
    return graph_id, g, spec, intersection_array(g)


def _gq_gh_shape(ia: IntersectionArray):
    """(kind, q) when the array is a GQ(q,q) or GH(q,q) incidence array: the
    array {q+1,q,...,q; 1,...,1,q+1} of diameter 4 or 6, with q >= 2."""
    k, D = ia.k, ia.D
    kind = {4: "GQ", 6: "GH"}.get(D)
    if kind is None or k < 3:
        return None
    shape = IntersectionArray((k,) + (k - 1,) * (D - 1), (1,) * (D - 1) + (k,))
    return (kind, k - 1) if ia == shape else None


def _judged(ia: IntersectionArray, c: CutCertificate) -> CutCertificate:
    """The certificate with its verdict against lambda_1, decided exactly."""
    return replace(c, verdict="ok" if at_most_lambda1(ia, c.ratio) else "open")


# The witness rules in report order, each an (applies, build) pair: a graph
# rule reads (g, ia, t1, spec) and builds a certificate, an array rule reads
# (ia, spec) and builds an analytic bound.  A build names its builder, which
# is looked up in this module's globals when the rule runs.
GRAPH_RULES = (
    (lambda g, ia, t1, spec: spec is not None and spec.family not in NO_DESCENDANT,
     lambda g, ia, t1, spec: avg_valency_certificate(
         g, descendant(spec), theory_values(spec).theta1)),
    (lambda g, ia, t1, spec: ia.D == 2,
     lambda g, ia, t1, spec: ball_cut(g, 1, "ball")),
    (lambda g, ia, t1, spec: ia.is_bipartite() and ia.v % 2 == 0,
     lambda g, ia, t1, spec: bipartite_half_cut(g)),
    (lambda g, ia, t1, spec: ia.D == 3 and ia.is_antipodal() and t1 is not None,
     lambda g, ia, t1, spec: antipodal_fibre_cut(g, ia, t1)),
    (lambda g, ia, t1, spec: ia.D == 3 and t1 is not None and t1 == ia.a(3),
     lambda g, ia, t1, spec: shilla_cut(g, ia)),
    (lambda g, ia, t1, spec: ia.k >= 3 and ia.D >= 3 and 2 * ia.girth() <= ia.v,
     lambda g, ia, t1, spec: girth_cycle_cut(g, ia)),
    (lambda g, ia, t1, spec: ia.k == 4 and ia.a(1) == 1,
     lambda g, ia, t1, spec: triangle_chain_cut(g)),
    (lambda g, ia, t1, spec: ia.k == 4 and ia.a(1) == 1 and ia.D == 4,
     lambda g, ia, t1, spec: triangle_octagon_cut(g)),
    (lambda g, ia, t1, spec: ia == TWELVE_CAGE_ARRAY,
     lambda g, ia, t1, spec: twelve_cage_witness(g, ia)),
    (lambda g, ia, t1, spec: ia == GQ33_ARRAY,
     lambda g, ia, t1, spec: gq33_incidence_witness(g, ia)),
)
ARRAY_RULES = (
    (lambda ia, spec: ia.D == 2,
     lambda ia, spec: srg_certify(ia)),
    (lambda ia, spec: _gq_gh_shape(ia) is not None,
     lambda ia, spec: gq_gh_incidence_verdict(*_gq_gh_shape(ia))),
    (lambda ia, spec: ia.is_bipartite() and ia.D == 3 and ia.k >= 4,
     lambda ia, spec: bipartite_diameter3_verdict(ia)),
    (lambda ia, spec: spec is not None and spec.family == "doubledgrassmann",
     lambda ia, spec: doubled_grassmann_verdict(*spec.params)),
)


def gather_bounds(g: Graph | None, ia: IntersectionArray, t1_exact,
                  spec: FamilySpec | None):
    """(certificates, bounds) from every rule that applies, each certificate
    judged; t1_exact is exact_theta1(ia), computed once by the caller.  With g
    None (a parameters-only entry) only the array rules run.  A witness runs
    only where it applies, so one that raises is an error of the target."""
    certs = [] if g is None else [
        _judged(ia, build(g, ia, t1_exact, spec))
        for applies, build in GRAPH_RULES if applies(g, ia, t1_exact, spec)]
    return certs, [build(ia, spec) for applies, build in ARRAY_RULES
                   if applies(ia, spec)]


def verify_one(target: str, config: SearchConfig = SearchConfig()) -> dict:
    """The record of one target.  A parameters-only catalog entry has no
    graph: gather_bounds gives it the array rules' bounds, and it gets no
    certificate, search or exact h."""
    graph_id, g, spec, ia = _resolve(target)
    spectrum = drg_spectrum(ia)
    t1_exact = exact_theta1(ia)
    lam1 = ((SqrtVal(ia.k) - t1_exact) / ia.k) if t1_exact is not None \
        else spectrum.lambda1
    crosscheck = best = exact_h = None
    certs, bounds = gather_bounds(g, ia, t1_exact, spec)

    if g is not None:
        # intersection_array has checked the array on every vertex pair, so
        # the adjacency eigenvalues are the intersection matrix's; the float
        # spectrum is checked against them exactly, with no n x n matrix
        crosscheck = spectrum_certified(ia, spectrum.thetas)
        # h >= lambda_1/2 (Cheeger), so a witness of ratio lambda_1/2 is a
        # global minimum.  When it is also the least witness under the
        # search's order and its method sorts before "refine" and "sweep", the
        # search cannot return anything else, so it is skipped.  Below
        # exact_cap the exact oracle runs anyway, because exact_h is its own
        # enumeration.
        least = min(certs, key=cert_key, default=None)
        if (g.n > config.exact_cap and least is not None and least.method < "refine"
                and at_most_lambda1(ia, 2 * least.ratio)):
            best = least
        else:
            best = _judged(ia, min([*certs, best_upper_bound(g, config)], key=cert_key))
        if best not in certs:
            certs.append(best)
        if g.n <= config.exact_cap:
            # the floor skip above did not apply, so best_upper_bound ran
            # exact_cheeger, whose certificate is the global minimum: no
            # other certificate beats it and best.ratio is h
            exact_h = best.ratio

    status = "OK" if any(c.verdict == "ok" for c in certs) or \
        any(b.verdict == "ok" for b in bounds) else "OPEN"
    if exact_h is not None and not at_most_lambda1(ia, exact_h):
        # a polygon (k = 2) has h = 2/n against lambda_1 of about
        # 2 pi^2 / n^2, so the conjecture is read for k >= 3 only
        status = "VIOLATION" if ia.k >= 3 else "OUT_OF_SCOPE"

    return {
        "id": graph_id, "n": ia.v, "k": ia.k, "D": ia.D,
        "array": str(ia), "parameters_only": g is None,
        "theta1": _val_json(t1_exact if t1_exact is not None else spectrum.theta1),
        "lambda1": _val_json(lam1),
        "window": _window_json(lam1),
        "spectrum_crosscheck": crosscheck,
        "certificates": [_cert_json(graph_id, c, lam1) for c in certs],
        "bounds": [_bound_json(graph_id, b) for b in bounds],
        "best": _cert_json(graph_id, best, lam1) if best is not None else None,
        "exact_h": {"num": exact_h.numerator, "den": exact_h.denominator}
        if exact_h is not None else None,
        "status": status,
    }


def _window_json(lam1):
    w = cheeger_window(lam1)
    return {"lower": float(f"{w.lower:.15g}"), "upper": float(f"{w.upper:.15g}")}


def default_targets() -> list[str]:
    return [e.name for e in catalog_list()] + [str(s) for s in default_grid()]


def verify_all(config: SearchConfig = SearchConfig(),
               targets: list[str] | None = None) -> dict:
    if targets is None:
        targets = default_targets()
    records = []
    for t in targets:
        try:
            records.append(verify_one(t, config))
        except DrgcError as exc:   # one bad target must not end the batch
            records.append({"id": t, "status": "ERROR",
                            "error": f"{type(exc).__name__}: {exc}"})
    # ERROR and OUT_OF_SCOPE are counted only when present, so a clean run's
    # report keeps its three counts
    counts = {"OK": 0, "OPEN": 0, "VIOLATION": 0}
    for r in records:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    return {
        "schema": SCHEMA,
        "tool": f"drgc {__version__}",
        "config": {"exact_cap": config.exact_cap, "seeds": list(config.seeds),
                   "refine_budget": search.REFINE_BUDGET},
        "counts": counts,
        "open_graphs": sorted(r["id"] for r in records if r["status"] == "OPEN"),
        "records": records,
    }


def emit(report: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(report, indent=1, sort_keys=False) + "\n").encode()
    if fmt == "csv":
        out = io.StringIO()
        out.write(f"# schema: {SCHEMA}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["graph", "n", "k", "D", "kind", "method", "value_num",
                         "value_den", "value_approx", "boundary", "volS",
                         "set_size", "verdict", "status"])
        for r in report["records"]:
            if r["status"] == "ERROR":
                writer.writerow([r["id"], "", "", "", "error", r["error"]] +
                                [""] * 7 + [r["status"]])
                continue
            rows = [("certificate", c) for c in r["certificates"]]
            rows += [("bound", b) for b in r["bounds"]]
            for kind, item in rows:
                if kind == "certificate":
                    num, den = item["ratio"]["num"], item["ratio"]["den"]
                    approx = item["ratio"]["approx"]
                    boundary, vol, size = (item["boundary"], item["volS"],
                                           len(item["S"]))
                else:
                    val = item["value"]
                    frac = Fraction(val["u"]) if val["s"] == 1 and val["w"] == "0" \
                        else None
                    num = frac.numerator if frac is not None else ""
                    den = frac.denominator if frac is not None else ""
                    approx = val["approx"]
                    boundary = vol = size = ""
                writer.writerow([r["id"], r["n"], r["k"], r["D"], kind,
                                 item["method"], num, den, approx, boundary,
                                 vol, size, item["verdict"], r["status"]])
        return out.getvalue().encode()
    raise DrgcError(f"unknown format {fmt!r}")
