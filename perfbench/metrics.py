"""Metric definitions, the tail-percentile rule and the correctness checks.

Standard library only: ``run.py`` computes every reported
number here from the raw fit records the workers emit, so these helpers
are testable without importing ``repro``.

A *fit record* is the JSON dict one worker process returns for one
``FLSimulation`` fit (see ``worker.py``): setup split, fit wall time,
round-completion times, evaluations, per-round comm / leg outcomes and
peak RSS.
"""

from __future__ import annotations

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_s_p50": ("s", "lower"),
    "round_s_p75": ("s", "lower"),
    "time_to_target_s": ("s", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "acc_tail5": ("frac", "higher"),
    "comm_params_per_round": ("count", "lower"),
    "leg_land_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_PHASES = ("select", "dispatch", "collect", "aggregate", "evaluate")

#: Per-layer metrics from the traced run: name -> unit.  Times and
#: counts are per completed round unless the name says otherwise.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.data_s": "s",
    "setup.build_s": "s",
    **{f"server.{p}_s": "s" for p in _PHASES},
    **{f"server.{p}_share": "frac" for p in _PHASES},
    "server.phase_cover": "frac",
    "trainer.legs": "count",
    "trainer.busy_s": "s",
    "trainer.samples_per_s": "1/s",
    "execution.self_s": "s",
    "gram.updates": "count",
    "gram.busy_s": "s",
    "selection.busy_s": "s",
    "crossaggr.busy_s": "s",
    "globalgen.calls": "count",
    "globalgen.busy_s": "s",
    "eval.busy_s": "s",
    "faults.collect_s": "s",
    "faults.legs_dispatched": "count",
    "faults.legs_landed": "count",
    "faults.legs_carried": "count",
    "faults.retries": "count",
    "rpc.data_calls": "count",
    "rpc.data_s": "s",
    "rpc.exec_calls": "count",
    "rpc.exec_s": "s",
    "rpc.scalars": "count",
    "rpc.transport_retries": "count",
    "async.adapter_s": "s",
    "async.speculative_blends": "count",
    "async.redone": "count",
    "async.spec_useful_frac": "frac",
    "async.stale_uploads": "count",
    "comm.up_params": "count",
    "comm.down_params": "count",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

TAIL_WINDOW = 5
TARGET_WINDOW = 3


def tail_percentile(values, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-percentile, refused unless at least
    ``min_beyond`` samples lie strictly above it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    beyond = sum(1 for v in ordered if v > value)
    if beyond < min_beyond:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has {beyond} beyond "
            f"it; at least {min_beyond} are required"
        )
    return value


def round_intervals(fit: dict) -> list[float]:
    """Round wall times: the gap between consecutive round completions
    (the first measured from fit start).  For async rounds this is the
    interval between completions, for sync rounds their duration."""
    ends = fit["round_end_s"]
    return [b - a for a, b in zip([0.0] + ends[:-1], ends)]


def time_to_target(evals, target: float, window: int = TARGET_WINDOW):
    """Fit time of the first evaluation at which the trailing
    ``window``-eval mean accuracy reaches ``target`` (None if never)."""
    for i in range(window - 1, len(evals)):
        accs = [e[1] for e in evals[i - window + 1 : i + 1]]
        if sum(accs) / window >= target:
            return evals[i][0]
    return None


def acc_tail(evals, window: int = TAIL_WINDOW) -> float:
    accs = [e[1] for e in evals[-window:]]
    return sum(accs) / len(accs)


def leg_totals(fits: list[dict]) -> tuple[int, int]:
    """``(landed, asked)``: fresh uploads vs legs the cohorts asked for."""
    landed = sum(r["landed"] for f in fits for r in f["records"])
    return landed, sum(f["k"] * len(f["records"]) for f in fits)


def comm_per_round(fits: list[dict]) -> float:
    rounds = [r for f in fits for r in f["records"]]
    return sum(r["up"] + r["down"] for r in rounds) / len(rounds)


def counts_signature(fit: dict) -> tuple:
    """The seeded outputs that must repeat exactly run to run."""
    landed, asked = leg_totals([fit])
    return (comm_per_round([fit]), landed / asked, acc_tail(fit["evals"]))


def end_to_end(setups: list[float], fits: list[dict], target: float) -> dict:
    """Every end-to-end metric from the setup samples and the untraced
    fits of one run.  Per-round quantities pool the rounds of all fits;
    ``time_to_target_s`` is the median over fits; ``acc_tail5`` and
    ``peak_rss_mb`` come from the full-length fits only."""
    full = [f for f in fits if not f["stopped"]]
    rounds = [d for fit in fits for d in round_intervals(fit)]
    landed, asked = leg_totals(fits)
    samples = sum(r["samples"] for f in fits for r in f["records"])
    # A fit that never reaches the target is censored at its end (and
    # fails check_fit, so the run is reported incorrect).
    ttt = [time_to_target(f["evals"], target) or f["fit_s"] for f in fits]
    return {
        "setup_s": statistics.median(setups),
        "round_s_p50": statistics.median(rounds),
        "round_s_p75": tail_percentile(rounds, 0.75),
        "time_to_target_s": statistics.median(ttt),
        "train_samples_per_s": samples / sum(f["fit_s"] for f in fits),
        "acc_tail5": statistics.median(acc_tail(f["evals"]) for f in full),
        "comm_params_per_round": comm_per_round(fits),
        "leg_land_frac": landed / asked,
        "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in full),
    }


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def check_fit(fit: dict, spec: dict) -> list[str]:
    """Correctness failures of one fit (empty when it is correct).

    ``spec`` holds the workload's ``rounds``, ``target``, ``acc_floor``,
    ``exact_comm`` flag and ``staleness`` bound (None for sync).  A fit
    stopped at the target records a prefix of the rounds and skips the
    floor check.
    """
    errors = []
    rounds = spec["rounds"]
    recs = fit["records"]
    expect = len(recs) if fit["stopped"] and 0 < len(recs) <= rounds else rounds
    if [r["round"] for r in recs] != list(range(expect)):
        errors.append(f"{len(recs)} of {rounds} rounds recorded")
    if len(fit["round_end_s"]) != len(recs):
        errors.append("round completion times do not match the records")
    bad_loss = [r["round"] for r in recs if not _finite(r["train_loss"])]
    bad_loss += [round(e[0], 3) for e in fit["evals"] if not _finite(e[2])]
    if bad_loss:
        errors.append(f"non-finite losses at {bad_loss[:5]}")
    if not fit["evals"]:
        errors.append("no evaluations")
    k = fit["k"]
    for r in recs:
        # Fresh landings come from the upload hook, failures from the
        # round record: two sources that must account for every leg.
        if r["landed"] + r["failed"] != k or r["carried"] > r["failed"]:
            errors.append(
                f"round {r['round']}: landed {r['landed']} + failed "
                f"{r['failed']} != dispatched {k} (carried {r['carried']})"
            )
            break
    if spec.get("exact_comm"):
        want = 2 * k * fit["p"]
        wrong = [r["round"] for r in recs if r["up"] + r["down"] != want]
        if wrong:
            errors.append(f"comm != 2*K*P = {want} in rounds {wrong[:5]}")
    bound = spec.get("staleness")
    if bound is not None:
        stale = [r["round"] for r in recs if (r["max_stale"] or 0) > bound]
        if stale:
            errors.append(f"dispatch staleness > {bound} in rounds {stale[:5]}")
    if fit["evals"]:
        tail = acc_tail(fit["evals"])
        if tail < spec["acc_floor"] and not fit["stopped"]:
            errors.append(f"acc_tail5 {tail:.4f} below floor {spec['acc_floor']}")
        if time_to_target(fit["evals"], spec["target"]) is None:
            errors.append(f"target accuracy {spec['target']} never reached")
    return errors


def check_repeatable(fits: list[dict]) -> list[str]:
    """Seeded counts must be identical across fits of one seed."""
    sigs = {counts_signature(f) for f in fits}
    if len(sigs) > 1:
        return [f"seeded counts differ between fits: {sorted(sigs)}"]
    return []
