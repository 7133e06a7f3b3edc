"""The benchmark's arithmetic: tail percentile, self time, fail ratio, layer metrics.

Everything here is a pure function of op records and spans (see
``spans.py`` for the span layout), so every reported figure can be
recomputed from the record file a run writes.
"""

from __future__ import annotations

import math
import statistics

# Percentiles the tail is chosen from.  A coarse fixed ladder keeps the
# reported percentile the same when the number of passes in a run changes
# by a few: p50 from 20 ops, p90 from 100, p99 from 1000.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10


def tail_percentile(values, ladder=TAIL_LADDER, beyond=TAIL_BEYOND):
    """Highest ladder percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank percentile: rank ceil(p/100 * n) of the sorted
    values, so ``n - rank`` samples lie beyond it.  Returns (percentile,
    value, n, resolved).  With fewer than ``2 * beyond`` samples no ladder
    percentile qualifies and the tail is unresolved; the median (p50) is
    returned then, because the maximum of a handful of ops measures the
    host's noise rather than the program.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    best = None
    for p in ladder:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            best = (p, xs[rank - 1])
    if best is None:
        return 50.0, statistics.median(xs), n, False
    return best[0], best[1], n, True


def pass_median(records, key):
    """Median over passes of the mean of ``key`` over the pass's ops.

    A pass runs every op once, so this is a time per op.  Unlike the
    median over all ops it does not jump between op kinds of different
    cost when a workload mixes them.
    """
    by_pass = {}
    for r in records:
        by_pass.setdefault(r["pass"], []).append(r[key])
    return statistics.median(statistics.fmean(v) for v in by_pass.values())


def fail_ratio(records):
    """Failed ops over attempted ops."""
    if not records:
        raise ValueError("no ops attempted")
    return sum(1 for r in records if r["outcome"] != "ok") / len(records)


def _duration(span):
    return span["end"] - span["start"]


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans):
    """Span id -> duration minus the time its children and leaf callables cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: _duration(s) - _covered(children.get(s["id"], []))
            - sum(agg["s"] for agg in s["leaf"].values())
            for s in spans}


def outermost(spans, name):
    """Spans called ``name`` with no ancestor of the same name (no double count)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def layer_shares(spans):
    """Share of all op time spent in each layer's own code.

    Every op root span is a ``bench`` span, so the self times of all
    spans plus the leaf time add up to the op time and the shares sum
    to 1.  Leaf time counts for the layer its name starts with.
    """
    own = self_times(spans)
    busy = {}
    for s in spans:
        layer = layer_of(s["name"])
        busy[layer] = busy.get(layer, 0.0) + own[s["id"]]
        for leaf, agg in s["leaf"].items():
            busy[layer_of(leaf)] = busy.get(layer_of(leaf), 0.0) + agg["s"]
    total = sum(_duration(s) for s in spans if s["parent"] is None)
    return {layer: t / total for layer, t in sorted(busy.items())} if total > 0 else {}


def span_totals(spans):
    """Additive per-layer quantities of one set of spans."""
    own = self_times(spans)

    def total(name):
        return sum(_duration(s) for s in outermost(spans, name))

    def count(name, via=None):
        return sum(1 for s in spans if s["name"] == name
                   and (via is None or s["via"] == via))

    def self_total(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def leaf(name, key):
        return sum(s["leaf"][name][key] for s in spans if name in s["leaf"])

    return {
        "linalg.spsolve_calls": count("linalg.spsolve"),
        "linalg.spsolve_s": total("linalg.spsolve"),
        "gridsolve.solve_system_fd_s": total("gridsolve.solve_system_fd"),
        "gridsolve.solve_scalar_fd_calls": count("gridsolve.solve_scalar_fd"),
        "gridsolve.solve_scalar_fd_self_s": self_total("gridsolve.solve_scalar_fd"),
        "gridsolve.source_evals": count("rhs.eval_f", via="masym.gridsolve"),
        "gridsolve.write_csv_s": total("gridsolve.write_solution_csv"),
        "gridsolve.write_binary_s": total("gridsolve.write_solution_binary"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
        "cli.artifact_bytes": attr("bench.op", "artifact_bytes"),
        "movingplane.lambda_sweep_s": total("movingplane.lambda_sweep"),
        "movingplane.build_frame_calls": count("movingplane.build_frame"),
        "movingplane.build_frame_self_s": self_total("movingplane.build_frame"),
        "movingplane.frame_nodes": attr("movingplane.build_frame", "nodes"),
        "movingplane.linearize_s": total("movingplane.linearize"),
        "movingplane.verify_ei_s": total("movingplane.verify_elliptic_inequality"),
        "movingplane.certify_monotonicity_s": total("movingplane.certify_monotonicity"),
        "movingplane.certify_symmetry_self_s": self_total("movingplane.certify_symmetry"),
        "movingplane.boundary_checks_s": total("movingplane.boundary_checks"),
        "domains.critical_planes_s": total("domains.critical_planes"),
        "domains.critical_planes_self_s": self_total("domains.critical_planes"),
        "domains.check_convex_s": total("domains.check_convex_in_direction"),
        "domains.phi_calls": leaf("domains.phi", "calls"),
        "domains.phi_points": leaf("domains.phi", "points"),
        "domains.phi_s": leaf("domains.phi", "s"),
        "radial.solve_coupled_radial_s": total("radial.solve_coupled_radial"),
        "radial.calls": count("radial.solve_coupled_radial"),
        "radial.nosolution_history_len": attr("radial.solve_coupled_radial",
                                              "nosolution_history_len"),
        "rhs.check_hypotheses_s": total("rhs.check_hypotheses"),
        "rhs.eval_f_calls": count("rhs.eval_f"),
    }


def per_layer(setup_spans, pass_spans, n_passes, probes, overhead_s):
    """Per-layer metrics for one set-up plus one pass.

    Pass quantities are averaged over the ``n_passes`` traced passes;
    ``probes`` holds the benchmark's own timings of the grid build and
    the operator; ``overhead_s`` is traced minus untraced median op time.
    """
    setup = span_totals(setup_spans)
    per_pass = span_totals(pass_spans)
    out = {k: setup[k] + per_pass[k] / n_passes for k in setup}
    fd = out["gridsolve.solve_system_fd_s"]
    out["linalg.spsolve_share"] = out["linalg.spsolve_s"] / fd if fd > 0 else 0.0
    out["gridsolve.operator_eval_s"] = probes.get("operator_eval_s", 0.0)
    out["gridsolve.grid_build_s"] = probes.get("grid_build_s", 0.0)
    out["bench.trace_overhead_s"] = overhead_s
    return out
