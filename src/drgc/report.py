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
from .catalog import catalog_entry, catalog_list, catalog_load
from .errors import DrgcError, UnknownName
from .exact import SqrtVal
from .families import FamilySpec, construct, default_grid, descendant, theory_values
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
    """Returns (graph_id, Graph | None, FamilySpec | None, catalog status or None)."""
    try:
        entry = catalog_entry(target)
    except UnknownName:
        entry = None
    if entry is not None:
        if entry.source == "parameters-only":
            return target, None, None, entry
        g, _ = catalog_load(target)
        return target, g, entry.family, entry
    if ":" in target:
        spec = FamilySpec.parse(target)
        return str(spec), construct(spec), spec, None
    g = g6_decode(target, name="g6-input")
    return f"g6:{target[:24]}", g, None, None


def _gq_gh_shape(ia: IntersectionArray):
    """(kind, q) when the array is a GQ(q,q) or GH(q,q) incidence array."""
    k = ia.k
    q = k - 1
    if q < 2:
        return None
    gq = IntersectionArray((k, q, q, q), (1, 1, 1, k))
    gh = IntersectionArray((k, q, q, q, q, q), (1, 1, 1, 1, 1, k))
    if ia == gq:
        return ("GQ", q)
    if ia == gh:
        return ("GH", q)
    return None


def _judged(ia: IntersectionArray, c: CutCertificate) -> CutCertificate:
    """The certificate with its verdict against lambda_1, decided exactly."""
    return replace(c, verdict="ok" if at_most_lambda1(ia, c.ratio) else "open")


def gather_bounds(g: Graph, ia: IntersectionArray, t1_exact,
                  spec: FamilySpec | None):
    """All applicable witness certificates, judged, and analytic bounds;
    t1_exact is exact_theta1(ia), computed once by the caller."""
    certs: list[CutCertificate] = []
    bounds: list[AnalyticBound] = []
    k, D = ia.k, ia.D

    if spec is not None:
        try:
            S = descendant(spec)
            certs.append(avg_valency_certificate(
                g, S, theory_values(spec).theta1, "descendant"))
        except DrgcError:
            pass
    if D == 2:
        bounds.append(srg_certify(ia))
        certs.append(ball_cut(g, 0, 1, "ball"))
    shape = _gq_gh_shape(ia)
    if shape is not None:
        bounds.append(gq_gh_incidence_verdict(*shape))
    if ia.is_bipartite():
        if ia.v % 2 == 0:
            certs.append(bipartite_half_cut(g))
        if D == 3 and k >= 4:
            bounds.append(bipartite_diameter3_verdict(ia))
    if D == 3 and ia.is_antipodal() and t1_exact is not None:
        certs.append(antipodal_fibre_cut(g, ia, t1_exact))
    if D == 3 and t1_exact is not None and t1_exact == ia.a(3):   # Shilla: theta1 = a_3
        certs.append(shilla_cut(g, ia))
    if k >= 3 and D >= 3:
        try:
            certs.append(girth_cycle_cut(g, ia))
        except DrgcError:
            pass
    if k == 4 and ia.a(1) == 1:
        for builder in (lambda: triangle_chain_cut(g),
                        lambda: triangle_octagon_cut(g)):
            try:
                certs.append(builder())
            except DrgcError:
                pass
    if ia == TWELVE_CAGE_ARRAY:
        certs.append(twelve_cage_witness(g, ia))
    if ia == GQ33_ARRAY:
        certs.append(gq33_incidence_witness(g, ia))
    if spec is not None and spec.family == "doubledgrassmann":
        bounds.append(doubled_grassmann_verdict(*spec.params))
    return [_judged(ia, c) for c in certs], bounds


def verify_one(target: str, config: SearchConfig = SearchConfig()) -> dict:
    graph_id, g, spec, entry = _resolve(target)

    if g is None:   # parameters-only entry
        ia = entry.array
        lam1 = entry.lambda1
        shape = _gq_gh_shape(ia)
        bounds = [gq_gh_incidence_verdict(*shape)] if shape else []
        status = "OK" if any(b.verdict == "ok" for b in bounds) else "OPEN"
        return {
            "id": graph_id, "n": ia.v, "k": ia.k, "D": ia.D,
            "array": str(ia), "parameters_only": True,
            "theta1": _val_json(entry.theta1), "lambda1": _val_json(lam1),
            "window": _window_json(lam1),
            "spectrum_crosscheck": None,
            "certificates": [], "bounds": [_bound_json(graph_id, b) for b in bounds],
            "best": None, "exact_h": None, "status": status,
        }

    ia = intersection_array(g)
    spectrum = drg_spectrum(ia)
    t1_exact = exact_theta1(ia)
    lam1 = ((SqrtVal(ia.k) - t1_exact) / ia.k) if t1_exact is not None \
        else spectrum.lambda1

    # intersection_array has checked the array on every vertex pair, so the
    # adjacency eigenvalues are the intersection matrix's; the float spectrum
    # is checked against them exactly, with no n x n matrix
    crosscheck = spectrum_certified(ia, spectrum.thetas)

    certs, bounds = gather_bounds(g, ia, t1_exact, spec)
    # h >= lambda_1/2 (Cheeger), so a witness of ratio lambda_1/2 is a global
    # minimum.  When it is also the least witness under the search's order and
    # its method sorts before "refine" and "sweep", the search cannot return
    # anything else, so it is skipped.  Below exact_cap the exact oracle runs
    # anyway, because exact_h is its own enumeration.
    least = min(certs, key=cert_key, default=None)
    if (g.n > config.exact_cap and least is not None and least.method < "refine"
            and at_most_lambda1(ia, 2 * least.ratio)):
        best = least
    else:
        best = _judged(ia, best_upper_bound(g, config, extra_certs=certs))
    all_certs = list(certs)
    if best not in all_certs:
        all_certs.append(best)

    exact_h = None
    status = "OPEN"
    if any(c.verdict == "ok" for c in all_certs) or \
            any(b.verdict == "ok" for b in bounds):
        status = "OK"
    if g.n <= config.exact_cap:
        # n <= exact_cap, so the floor skip above did not apply and
        # best_upper_bound ran exact_cheeger, whose certificate is the global
        # minimum: no other certificate beats it and best.ratio is h
        exact_h = best.ratio
        if not at_most_lambda1(ia, exact_h):
            # a polygon (k = 2) has h = 2/n against lambda_1 of about
            # 2 pi^2 / n^2, so the conjecture is read for k >= 3 only
            status = "VIOLATION" if ia.k >= 3 else "OUT_OF_SCOPE"

    return {
        "id": graph_id, "n": g.n, "k": ia.k, "D": ia.D,
        "array": str(ia), "parameters_only": False,
        "theta1": _val_json(t1_exact if t1_exact is not None else spectrum.theta1),
        "lambda1": _val_json(lam1),
        "window": _window_json(lam1),
        "spectrum_crosscheck": crosscheck,
        "certificates": [_cert_json(graph_id, c, lam1) for c in all_certs],
        "bounds": [_bound_json(graph_id, b) for b in bounds],
        "best": _cert_json(graph_id, best, lam1),
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
                   "refine_budget": config.refine_budget},
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
