"""Traced passes: timing wrappers around drgc's public functions.

Each wrapper is installed from here, at the module binding its caller looks
up (``report``'s own names, ``search``'s bindings of exact_cheeger,
local_refine, sweep_cut and eigensystem, ``catalog``'s bindings of its graph
and spectrum helpers), so the program itself is not edited.  A span is
``[name, start, end, parent, target, note, raised, note_s]``; spans stay in
memory until the pass ends.  ``note`` is a number computed from the call's
arguments and result after the call returns, and ``note_s`` the time that
took.  A layer's time is its self time: the span's duration minus the
net durations of its direct children, where a net duration leaves out the
note times of every span under it, so the tracer's own recounts are not
charged to the program.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

from workload import recount

# binding name -> layer name (the module that defines the function; the
# witness layer is entered through report.gather_bounds)
REPORT_BINDINGS = {
    "verify_one": "report.verify_one",
    "emit": "report.emit",
    "catalog_load": "catalog.catalog_load",
    "construct": "families.construct",
    "descendant": "families.descendant",
    "theory_values": "families.theory_values",
    "g6_decode": "graph.g6_decode",
    "intersection_array": "graph.intersection_array",
    "drg_spectrum": "spectral.drg_spectrum",
    "exact_theta1": "spectral.exact_theta1",
    "dense_spectrum": "spectral.dense_spectrum",
    "gather_bounds": "witness.gather_bounds",
    "best_upper_bound": "search.best_upper_bound",
    "exact_cheeger": "search.exact_cheeger",
}
SEARCH_BINDINGS = {
    "exact_cheeger": "search.exact_cheeger",
    "local_refine": "search.local_refine",
    "sweep_cut": "search.sweep_cut",
    "eigensystem": "graph.eigensystem",
}
CATALOG_BINDINGS = {
    "catalog_load": "catalog.catalog_load",
    "construct": "families.construct",
    "g6_decode": "graph.g6_decode",
    "intersection_array": "graph.intersection_array",
    "drg_spectrum": "spectral.drg_spectrum",
    "exact_theta1": "spectral.exact_theta1",
}
DENSE_LAYERS = ("graph.intersection_array", "spectral.dense_spectrum",
                "graph.eigensystem")
SETTLED = ("ok", "within-tolerance")   # the verdicts verify_one counts as OK


def _refine_improved(args, cert) -> int:
    """1 when local_refine returned a lower ratio than its start set's."""
    g, start = args[0], args[1]
    boundary, vol = recount(g.adj, start)
    total = 2 * g.num_edges
    return int(cert.ratio < Fraction(boundary, min(vol, total - vol)))


def _settled(args, result) -> int:
    certs, bounds = result
    return int(any(c.verdict in SETTLED for c in certs) or
               any(b.verdict in SETTLED for b in bounds))


# numeric note per call, computed from the call's arguments and result
NOTES = {
    "search.exact_cheeger": lambda args, _: 2 ** args[0].n - 1,
    "search.local_refine": _refine_improved,
    "witness.gather_bounds": _settled,
    **{name: (lambda args, _: args[0].n ** 2) for name in DENSE_LAYERS},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.target = None

    def install(self) -> "Tracer":
        from drgc import catalog, report, search
        from drgc.errors import DrgcError

        witness_fns = {attr: f"witness.{attr}" for attr, fn in vars(report).items()
                       if inspect.isfunction(fn) and fn.__module__ == "drgc.witness"}
        for module, bindings in ((report, {**REPORT_BINDINGS, **witness_fns}),
                                 (search, SEARCH_BINDINGS),
                                 (catalog, CATALOG_BINDINGS)):
            for attr, name in bindings.items():
                setattr(module, attr, self._wrap(getattr(module, attr), name,
                                                 NOTES.get(name), DrgcError))
        return self

    def _wrap(self, fn, name, note, error_type):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1,
                    self.target, None, False, 0.0]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if note is not None:
                t0 = perf_counter()
                span[5] = note(args, result)
                span[7] = perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, records):
    """Per-layer metrics as {name: (value, unit)}, plus the top-10 lists.

    ``trace.overhead_frac`` needs an untraced pass and is added by run.py.
    """
    # a span's net time leaves out the note times of everything under it
    net = [s[2] - s[1] for s in spans]
    for s in spans:
        parent = s[3]
        while parent >= 0:
            net[parent] -= s[7]
            parent = spans[parent][3]
    own = list(net)
    for s, t in zip(spans, net):
        if s[3] >= 0:
            own[s[3]] -= t
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    notes: Counter = Counter()
    for s, t in zip(spans, own):
        calls[s[0]] += 1
        self_s[s[0]] += t
        if s[5] is not None:
            notes[s[0]] += s[5]

    settled = {s[4] for s in spans if s[0] == "witness.gather_bounds" and s[5]}
    after_settled = sum(t for s, t in zip(spans, net)
                        if s[0] == "search.best_upper_bound" and s[4] in settled)
    swallowed = sum(1 for s in spans if s[6] and s[3] >= 0
                    and spans[s[3]][0] == "witness.gather_bounds"
                    and not spans[s[3]][6])
    witness_calls = sum(n for name, n in calls.items()
                        if name.startswith("witness.") and name != "witness.gather_bounds")
    graph_records = [r for r in records if not r["parameters_only"]]
    exact = sum(1 for r in graph_records if r["exact_h"] is not None)

    def frac(a, b):
        return a / b if b else 0.0

    def timed(name):
        return {f"{name}.calls": (calls[name], "count"),
                f"{name}.s": (self_s[name], "s")}

    metrics = {
        **timed("search.exact_cheeger"),
        "search.exact_subsets": (notes["search.exact_cheeger"], "count"),
        **timed("search.local_refine"),
        "search.local_refine.improved_frac": (
            frac(notes["search.local_refine"], calls["search.local_refine"]), "fraction"),
        "search.sweep_cut.s": (self_s["search.sweep_cut"], "s"),
        "search.best_upper_bound.s": (self_s["search.best_upper_bound"], "s"),
        "search.after_settled_s": (after_settled, "s"),
        **timed("families.construct"),
        **timed("graph.intersection_array"),
        **timed("graph.eigensystem"),
        "graph.dense_cells": (sum(notes[n] for n in DENSE_LAYERS), "count"),
        **timed("spectral.dense_spectrum"),
        "witness.gather_bounds.s": (self_s["witness.gather_bounds"], "s"),
        "witness.calls": (witness_calls, "count"),
        "witness.raised": (swallowed, "count"),
        "witness.settled_frac": (
            frac(len(settled), calls["witness.gather_bounds"]), "fraction"),
        **timed("catalog.catalog_load"),
        "graph.g6_decode.s": (self_s["graph.g6_decode"], "s"),
        "spectral.drg_spectrum.s": (self_s["spectral.drg_spectrum"], "s"),
        **timed("spectral.exact_theta1"),
        "report.verify_one.s": (self_s["report.verify_one"], "s"),
        "report.emit.s": (self_s["report.emit"], "s"),
        "report.exact_frac": (frac(exact, len(graph_records)), "fraction"),
    }
    top10 = {}
    for name in ("report.verify_one", "report.emit"):
        mine = sorted(((s[4], t) for s, t in zip(spans, net) if s[0] == name),
                      key=lambda st: -st[1])
        top10[name] = [[target, round(t, 6)] for target, t in mine[:10]]
    return metrics, top10
