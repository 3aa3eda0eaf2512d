"""FedCross fit benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload cnn_dirichlet --seed 1 --seconds 20 --trace 0

Every fit and every set-up sample runs in its own worker process
(``worker.py``) with BLAS threads pinned to one, so runs neither share
warm caches nor spin idle BLAS threads on the other core.  A run makes
one full-length fit (seed ``1000*seed``) and the workload's
``stopped`` count, scaled by ``seconds / 20``, of fits stopped once the
target accuracy is reached (seeds
``1000*seed + i``), and tops the set-up samples up to three with
set-up-only processes.  ``--trace 1`` makes one untraced and one traced
full fit instead and reports the per-layer metrics, the tracing
overhead, and a Chrome trace under ``perfbench/out/``.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; ``attempted`` counts the fits run and ``failed`` those
that failed a correctness check, which also makes ``correct`` false.
Exits 2 without a result when the repository or enough cores are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    check_fit,
    check_repeatable,
    end_to_end,
    round_intervals,
)
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fit_seed(seed: int, i: int) -> int:
    """``FLConfig.seed`` of the ``i``-th fit of a run seeded ``seed``."""
    return seed * 1000 + i


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run one worker in its own process group; return its JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    # REPRO_* overrides (hosts, shards, array backend) would change the
    # program under test; the workload config is its only input.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        # The worker reaps its shard hosts; this only catches strays.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} failed:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    if workload.processes() > cores:
        print(f"perfbench: {args.workload} needs {workload.processes()} "
              f"cores, this host has {cores}", file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    spec = workload.check_spec()
    # One full-length fit, then fits stopped at the target: each follows
    # its own seeded trajectory, so time_to_target_s is a median over
    # trajectories at a fraction of the cost of full fits.
    n_stopped = 0 if args.trace else workload.stopped_fits(args.seconds)
    seeds = [fit_seed(seed, i) for i in range(1 + n_stopped)]
    n_setup = max(0, SETUP_SAMPLES - len(seeds) - args.trace)
    outs = [spawn(name, seeds[0], "--mode", "setup") for _ in range(n_setup)]
    for i, s in enumerate(seeds):
        outs.append(spawn(name, s, *(["--stop-at-target"] if i else [])))
    fits = [o["fit"] for o in outs[n_setup:]]
    checks = [check_fit(f, spec) for f in fits]
    traced = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace_{name}_seed{seed}.json")
        outs.append(spawn(name, seeds[0], "--trace-out", trace_path))
        traced = outs[-1]["fit"]
        checks.append(check_fit(traced, spec))
        if workload.staleness is None:
            # Sync fits are seeded end to end: the counts must repeat
            # exactly in another process, with tracing on.
            checks[-1] += check_repeatable([fits[0], traced])
    errors = [e for c in checks for e in c]

    setups = [o["setup"] for o in outs]
    rounds = [d for f in fits for d in round_intervals(f)]
    if args.trace:
        metrics = dict(traced["layers"])
        for part in ("import_s", "data_s", "build_s"):
            metrics[f"setup.{part}"] = statistics.median(s[part] for s in setups)
        metrics["trace.overhead"] = (
            statistics.median(round_intervals(traced)) / statistics.median(rounds)
        )
        units = PER_LAYER
    else:
        metrics = end_to_end([s["setup_s"] for s in setups], fits, workload.target)
        units = {k: unit for k, (unit, _better) in END_TO_END.items()}

    print("# host " + json.dumps(outs[0]["host"]))
    print(f"# {name} seed={seed} fits={len(fits)} ({n_stopped} stopped at target) "
          f"traced={traced is not None} setups={len(setups)} "
          f"round samples={len(rounds)}")
    for key in units:
        print(f"# {key:<28} {metrics[key]:>16.6g} {units[key]}")
    for e in errors:
        print(f"# CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(checks),
        "failed": sum(1 for c in checks if c),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
