"""Tests of the benchmark's own helpers (standard library + pytest only).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = {"rounds": 6, "target": 0.5, "acc_floor": 0.4, "exact_comm": True,
        "staleness": None}


def make_fit(rounds=6, k=4, p=10):
    accs = [0.1, 0.2, 0.5, 0.6, 0.7, 0.8][:rounds]
    return {
        "fit_s": float(rounds),
        "stopped": False,
        "round_end_s": [float(i + 1) for i in range(rounds)],
        "evals": [[float(i + 1), a, 1.0] for i, a in enumerate(accs)],
        "records": [
            {"round": i, "train_loss": 1.0, "up": k * p, "down": k * p,
             "failed": 0, "max_stale": None, "async": {},
             "landed": k, "carried": 0, "samples": k * 20}
            for i in range(rounds)
        ],
        "k": k,
        "p": p,
        "local_epochs": 1,
        "peak_rss_mb": 100.0,
    }


# -- percentile rule -------------------------------------------------------
def test_p75_needs_ten_samples_beyond():
    assert metrics.tail_percentile(range(1, 41), 0.75) == 30
    with pytest.raises(ValueError, match="at least 10"):
        metrics.tail_percentile(range(1, 40), 0.75)


def test_percentile_counts_ties_as_not_beyond():
    values = [1.0] * 30 + [2.0] * 10
    assert metrics.tail_percentile(values, 0.75) == 1.0
    with pytest.raises(ValueError):
        metrics.tail_percentile([1.0] * 29 + [2.0] * 11, 0.75)


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        metrics.tail_percentile(range(100), 1.0)


# -- end-to-end metric definitions ------------------------------------------
def test_time_to_target_uses_trailing_mean():
    evals = [[1.0, 0.9, 0], [2.0, 0.1, 0], [3.0, 0.1, 0], [4.0, 0.9, 0],
             [5.0, 0.9, 0]]
    # A single high eval does not count; the trailing-3 mean must reach it.
    assert metrics.time_to_target(evals, 0.6) == 5.0
    assert metrics.time_to_target(evals, 0.95) is None


def test_end_to_end_values():
    fit = make_fit(rounds=40)
    for i, r in enumerate(fit["records"]):
        r["landed"], r["failed"] = (3, 1) if i % 2 else (4, 0)
    fit["evals"] = [[float(i + 1), 0.5, 1.0] for i in range(40)]
    gaps = [1.0, 1.0, 1.0, 2.0] * 10
    fit["round_end_s"] = [sum(gaps[: i + 1]) for i in range(40)]
    out = metrics.end_to_end([0.3, 0.1, 0.2], [fit], target=0.5)
    assert out["setup_s"] == 0.2
    assert out["round_s_p50"] == 1.0
    assert out["round_s_p75"] == 1.0  # exactly 10 rounds of 2.0 beyond
    assert out["time_to_target_s"] == 3.0
    assert out["leg_land_frac"] == pytest.approx(3.5 / 4)
    assert out["comm_params_per_round"] == 80
    assert set(out) == set(metrics.END_TO_END)


def test_stopped_fits_pool_rounds_but_not_accuracy():
    full = make_fit(rounds=36)
    full["evals"] = [[float(i + 1), 0.9, 1.0] for i in range(36)]
    stopped = make_fit(rounds=10)
    stopped["stopped"] = True
    accs = [0.1, 0.2, 0.5, 0.6, 0.7, 0.8, 0.8, 0.8, 0.8, 0.8]
    stopped["round_end_s"] = [2.0 * (i + 1) for i in range(10)]
    stopped["evals"] = [[2.0 * (i + 1), a, 1.0] for i, a in enumerate(accs)]
    out = metrics.end_to_end([0.1], [full, stopped], target=0.5)
    assert out["acc_tail5"] == pytest.approx(0.9)  # the full fit's only
    assert out["round_s_p75"] == 1.0               # 46 pooled rounds
    assert out["time_to_target_s"] == 6.5          # median of 3.0 and 10.0 s
    assert metrics.check_fit(stopped, {**SPEC, "rounds": 40}) == []  # a prefix


# -- correctness checks: each fed a violating history ----------------------
def test_clean_fit_passes():
    assert metrics.check_fit(make_fit(), SPEC) == []


@pytest.mark.parametrize("breaks, message", [
    (lambda f: f["records"].pop(), "rounds recorded"),
    (lambda f: f["records"][2].update(train_loss=float("nan")), "non-finite"),
    (lambda f: f["evals"][1].__setitem__(2, float("inf")), "non-finite"),
    (lambda f: f["records"][1].update(landed=3), "landed 3 + failed 0"),
    (lambda f: f["records"][1].update(carried=1), "carried 1"),
    (lambda f: f["records"][3].update(up=1), "comm != 2*K*P"),
    (lambda f: [e.__setitem__(1, 0.3) for e in f["evals"]], "below floor"),
    (lambda f: [e.__setitem__(1, 0.45) for e in f["evals"]], "never reached"),
])
def test_check_catches(breaks, message):
    fit = make_fit()
    breaks(fit)
    errors = metrics.check_fit(fit, SPEC)
    assert any(message in e for e in errors), errors


def test_staleness_bound():
    fit = make_fit()
    fit["records"][4]["max_stale"] = 2
    spec = {**SPEC, "staleness": 1}
    assert any("staleness > 1" in e for e in metrics.check_fit(fit, spec))
    fit["records"][4]["max_stale"] = 1
    assert metrics.check_fit(fit, spec) == []


def test_repeatable_counts():
    a, b = make_fit(), make_fit()
    assert metrics.check_repeatable([a, b]) == []
    b["evals"][-1][1] = 0.81
    assert metrics.check_repeatable([a, b])
    c = copy.deepcopy(a)
    c["records"][0]["up"] += 1
    assert metrics.check_repeatable([a, c])


# -- tracing ---------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    spans = [
        ["round", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 5.0, 0, 1],   # overlaps a: union 1..5
        ["c", 9.0, 12.0, 0, 1],  # clipped to the parent at 10
        ["d", 2.0, 3.0, 1, 1],   # grandchild: not subtracted from round
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 2.0, 3.0, 1.0]


def test_tracer_nests_per_thread_and_counts():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self):
            return 7

        def outer(self):
            return self.inner() + 1

    tr.patch(Layer, "inner", "layer.inner", after=lambda r, a, kw: tr.count("n", r))
    tr.patch(Layer, "outer", "layer.outer")
    assert Layer().outer() == 8
    outer, inner = tr.spans
    assert (outer[0], inner[0]) == ("layer.outer", "layer.inner")
    assert inner[3] == 0 and outer[3] is None
    assert tr.counters["n"] == 7
    t = tracing.totals(tr.closed_spans())
    assert t["layer.outer"]["self"] == t["layer.outer"]["busy"] - t["layer.inner"]["busy"]


def test_chrome_trace_writer(tmp_path):
    spans = [["server.collect", 1.0, 1.5, None, 7], ["trainer.train", 1.1, 1.2, 0, 7],
             ["open", 2.0, None, None, 7]]
    path = tmp_path / "trace.json"
    tracing.write_chrome_trace(str(path), spans, origin=1.0)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["server.collect", "trainer.train"]
    assert events[1]["cat"] == "trainer" and events[1]["ph"] == "X"
    assert events[1]["ts"] == pytest.approx(1e5)
    assert events[0]["dur"] == pytest.approx(5e5)
    assert events[1]["args"]["parent"] == 0


# -- names -----------------------------------------------------------------
def test_metric_names_match_regex_and_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        assert metrics.NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    for m in bench["end_to_end"]:
        assert (m["unit"], m["better"]) == metrics.END_TO_END[m["name"]]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_name_regex_rejects_bad_names():
    for bad in ("round s", "p75%", "a/b", ""):
        assert not metrics.NAME_RE.fullmatch(bad)
