"""The benchmark's arithmetic on synthetic spans and op records.

Run with ``python3 -m pytest bench/test_metrics.py``.
"""

import math
import sys
import types

import pytest

from metrics import (fail_ratio, layer_shares, outermost, pass_median, per_layer,
                     self_times, span_totals, tail_percentile)
from spans import Recorder


def span(id_, parent, name, start, end, op=1, via="masym.x", attrs=None, leaf=None):
    return {"id": id_, "parent": parent, "op": op, "name": name, "via": via,
            "start": start, "end": end, "attrs": attrs or {}, "leaf": leaf or {}}


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90, 100, True)
    assert tail_percentile(list(range(1, 100))) == (50.0, 50, 99, True)
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990, 1000, True)
    assert tail_percentile(list(range(20))) == (50.0, 9, 20, True)


def test_tail_unresolved_below_twenty_samples_reports_the_median():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 3, False)
    assert tail_percentile([5.0, 8.0]) == (50.0, 6.5, 2, False)
    assert tail_percentile(list(range(19)))[3] is False


def test_tail_stable_when_passes_repeat():
    one_pass = [0.03, 0.2, 0.24, 0.02, 0.05, 0.21, 0.03, 0.02, 0.26, 0.03]
    assert tail_percentile(one_pass * 11)[:2] == tail_percentile(one_pass * 19)[:2]


def test_pass_median_is_the_median_pass_mean():
    kinds = [1.0, 1.0, 10.0]                  # two cheap ops, one dear op
    records = [{"pass": p, "rel": k * f} for p, f in enumerate((1.0, 1.2, 0.9))
               for k in kinds]
    assert pass_median(records, "rel") == pytest.approx(4.0)


def test_fail_ratio_counts_every_non_ok_outcome():
    records = [{"outcome": "ok"}] * 14 + [{"outcome": "failed"}] * 3
    assert fail_ratio(records) == pytest.approx(3 / 17)
    with pytest.raises(ValueError):
        fail_ratio([])


def test_self_time_under_nested_spans():
    spans = [span(1, None, "bench.op", 0.0, 10.0),
             span(2, 1, "cli.main", 1.0, 9.0),
             span(3, 2, "gridsolve.solve_system_fd", 2.0, 8.0),
             span(4, 3, "linalg.spsolve", 2.5, 4.5),
             span(5, 3, "linalg.spsolve", 5.0, 7.0),
             span(6, 2, "gridsolve.write_solution_csv", 8.0, 8.5)]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(8.0 - 6.0 - 0.5)
    assert own[3] == pytest.approx(6.0 - 4.0)
    assert own[4] == pytest.approx(2.0)


def test_self_time_subtracts_leaf_time_and_overlapping_children_once():
    spans = [span(1, None, "domains.critical_planes", 0.0, 4.0,
                  leaf={"domains.phi": {"calls": 10, "points": 100, "s": 1.0}}),
             span(2, 1, "domains.check_convex_in_direction", 0.5, 1.5),
             span(3, 1, "domains.check_convex_in_direction", 1.0, 2.0)]
    assert self_times(spans)[1] == pytest.approx(4.0 - 1.5 - 1.0)


def test_outermost_does_not_double_count_recursion():
    spans = [span(1, None, "domains.critical_planes", 0.0, 3.0),
             span(2, 1, "domains.critical_planes", 1.0, 2.0)]
    assert [s["id"] for s in outermost(spans, "domains.critical_planes")] == [1]
    assert span_totals(spans)["domains.critical_planes_s"] == pytest.approx(3.0)


def test_layer_shares_sum_to_one():
    spans = [span(1, None, "bench.op", 0.0, 10.0),
             span(2, 1, "gridsolve.solve_system_fd", 1.0, 9.0),
             span(3, 2, "linalg.spsolve", 2.0, 8.0),
             span(4, 2, "rhs.eval_f", 8.0, 8.5, via="masym.gridsolve",
                  leaf={"domains.phi": {"calls": 1, "points": 2, "s": 0.1}})]
    shares = layer_shares(spans)
    assert math.isclose(sum(shares.values()), 1.0)
    assert shares["linalg"] == pytest.approx(0.6)
    assert shares["gridsolve"] == pytest.approx(0.15)
    assert shares["rhs"] == pytest.approx(0.04)
    assert shares["domains"] == pytest.approx(0.01)
    assert shares["bench"] == pytest.approx(0.2)


def test_per_layer_adds_setup_to_the_mean_pass_and_takes_the_share():
    setup = [span(1, None, "bench.setup", 0.0, 5.0, op=0),
             span(2, 1, "gridsolve.solve_system_fd", 0.0, 4.0, op=0),
             span(3, 2, "linalg.spsolve", 0.0, 3.0, op=0)]
    passes = [span(10, None, "bench.op", 0.0, 2.0, op=1),
              span(11, 10, "rhs.eval_f", 0.0, 1.0, op=1, via="masym.gridsolve"),
              span(12, None, "bench.op", 2.0, 4.0, op=2),
              span(13, 12, "rhs.eval_f", 2.0, 3.0, op=2, via="masym.rhs")]
    out = per_layer(setup, passes, 2, {"grid_build_s": 0.25}, 0.01)
    assert out["linalg.spsolve_calls"] == 1
    assert out["linalg.spsolve_share"] == pytest.approx(0.75)
    assert out["rhs.eval_f_calls"] == pytest.approx(1.0)
    assert out["gridsolve.source_evals"] == pytest.approx(0.5)
    assert out["gridsolve.grid_build_s"] == 0.25
    assert out["gridsolve.operator_eval_s"] == 0.0
    assert out["bench.trace_overhead_s"] == 0.01


def test_recorder_patches_every_namespace_and_restores():
    def helper(x):
        return 2 * x

    home = types.ModuleType("bench_fake_home")
    other = types.ModuleType("bench_fake_other")
    home.helper = other.helper = helper
    sys.modules["bench_fake_home"] = home
    try:
        rec = Recorder()
        rec.install([("fake.helper", "bench_fake_home", "helper",
                      lambda r: {"value": r})], [home, other])
        assert home.helper is not helper and other.helper is not helper
        assert home.helper(3) == 6          # outside an op: not recorded
        assert rec.spans == []
        with rec.op_span(1, "bench.op"):
            other.helper(4)
        rec.uninstall()
        assert home.helper is helper and other.helper is helper
    finally:
        del sys.modules["bench_fake_home"]
    names = [(s["name"], s["parent"], s["op"], s["via"]) for s in rec.spans]
    assert names == [("bench.op", None, 1, "bench"),
                     ("fake.helper", 1, 1, "bench_fake_other")]
    assert rec.spans[1]["attrs"] == {"value": 8}


def test_leaf_aggregates_into_the_open_span():
    rec = Recorder()
    phi = rec.leaf("domains.phi", lambda x: x, lambda x: len(x))
    phi([1, 2])                              # no open span: not counted
    with rec.op_span(1, "bench.op"):
        phi([1, 2, 3])
        phi([4])
    agg = rec.spans[0]["leaf"]["domains.phi"]
    assert (agg["calls"], agg["points"]) == (2, 4)
    assert agg["s"] >= 0.0
