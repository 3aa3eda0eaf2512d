"""One benchmark process: set up a workload's ``FLSimulation`` and,
unless ``--mode setup``, run one fit and report its raw record.

Started by ``run.py`` with BLAS threads pinned and ``PERFBENCH_T0`` set
to ``run.py``'s ``time.monotonic()`` just before the spawn (the
monotonic clock is system-wide), so ``setup_s`` covers interpreter
start, imports, ``build_federated_dataset``, model init and the
server/executor build.  Prints one JSON line on stdout.
"""

from __future__ import annotations

import os
import time

T0 = float(os.environ.get("PERFBENCH_T0") or time.monotonic())

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from metrics import time_to_target  # noqa: E402
from tracing import Tracer, totals, write_chrome_trace  # noqa: E402
from workloads import DATA_SEED, WORKLOADS, attach_stragglers, build_config  # noqa: E402


def host_info() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Recorder:
    """Round completions, evaluations and per-round upload outcomes."""

    def __init__(self, server, local_epochs: int, stop_at: float | None = None,
                 clock=time.perf_counter) -> None:
        self.clock = clock
        self.stop_at = stop_at
        self.start = None
        self.round_end_s: list[float] = []
        self.evals: list[list[float]] = []
        self.records: list[dict] = []
        self.uploads: dict[int, list[int]] = {}
        original = server.on_upload

        def on_upload(row, result):
            # Fresh legs train samples; carried legs land num_samples=0.
            n = self.uploads.setdefault(server.round_idx, [0, 0, 0])
            if result.num_samples > 0:
                n[0] += 1
                n[2] += result.num_samples * local_epochs
            else:
                n[1] += 1
            return original(row, result)

        server.on_upload = on_upload

    def callback(self):
        from repro.fl.callbacks import ServerCallback

        rec = self

        class _Callback(ServerCallback):
            def on_evaluate(self, server, record):
                rec.evals.append([rec.clock() - rec.start, record.accuracy, record.loss])
                if (rec.stop_at is not None
                        and time_to_target(rec.evals, rec.stop_at) is not None):
                    server.stop_training = True

            def on_round_end(self, server, record):
                rec.round_end_s.append(rec.clock() - rec.start)
                info = record.extras.get("async") or {}
                rec.records.append({
                    "round": record.round_idx,
                    "train_loss": record.train_loss,
                    "up": record.comm_up_params,
                    "down": record.comm_down_params,
                    "failed": len(record.extras.get("leg_failures", ())),
                    "max_stale": info.get("max_dispatch_staleness"),
                    "async": info,
                })

        return _Callback()

    def finish(self) -> None:
        for r in self.records:
            landed, carried, samples = self.uploads.get(r["round"], (0, 0, 0))
            r.update(landed=landed, carried=carried, samples=samples)


def install_tracer(tracer, server) -> None:
    """Wrap the public entry point of every traced layer."""
    import repro.faults.engine as engine
    import repro.fl.scheduler as scheduler
    import repro.fl.server as fl_server
    from repro.core.fedcross import FedCrossAsyncAdapter, FedCrossServer
    from repro.core.gram import GramTracker
    from repro.core.selection import CoModelSel
    from repro.distributed.cluster import HostCluster
    from repro.distributed.rpc import RPCChannel
    from repro.fl.trainer import LocalTrainer

    for phase, attr in (("select", "select_cohort"), ("dispatch", "dispatch"),
                        ("collect", "collect"), ("aggregate", "aggregate"),
                        ("evaluate", "evaluate")):
        tracer.patch(server, attr, f"server.{phase}")
    tracer.patch(scheduler, "run_sync_round", "server.round")
    tracer.patch(LocalTrainer, "train", "trainer.train",
                 after=lambda res, a, kw: tracer.count("trainer.samples", res.num_samples))
    tracer.patch(GramTracker, "update_row", "gram.update_row")
    tracer.patch(CoModelSel, "select_all", "selection.select_all")
    tracer.patch(type(server.aggregator), "cross_blend", "crossaggr.cross_blend")
    tracer.patch(FedCrossServer, "global_state", "globalgen.global_state")
    tracer.patch(fl_server, "evaluate_model", "eval.evaluate_model")
    tracer.patch(FedCrossAsyncAdapter, "upload_landed", "async.upload_landed")
    tracer.patch(FedCrossAsyncAdapter, "complete_round", "async.complete_round")

    # Fault engine: legs asked for, landed, carried, and resubmissions.
    submitted = [0]
    captured = server.executor.run_streaming_captured

    def run_streaming_captured(trainer, active, *args, **kwargs):
        submitted[0] += len(active)
        return captured(trainer, active, *args, **kwargs)

    server.executor.run_streaming_captured = run_streaming_captured

    def leg_outcomes(results, args, kwargs):
        n = len(args[1])
        failures = server.last_leg_failures
        first = n - sum(1 for f in failures if f.simulated)
        tracer.count("faults.legs_dispatched", n)
        tracer.count("faults.legs_landed", n - len(failures))
        tracer.count("faults.legs_carried", sum(1 for r in results if r.num_samples == 0))
        tracer.count("faults.retries", submitted[0] - first)
        submitted[0] = 0

    tracer.patch(engine, "resilient_collect", "faults.resilient_collect", after=leg_outcomes)

    # RPC: the cluster call names the channel purpose, the channel call
    # is timed; channel counters are read as deltas from first sight.
    local = threading.local()
    channels = {}
    cluster_call = HostCluster.call
    channel_call = RPCChannel.call

    def call(self, host, op, meta=None, arrays=None, blob=None, purpose="data"):
        prev = getattr(local, "purpose", None)
        local.purpose = purpose
        try:
            return cluster_call(self, host, op, meta, arrays, blob, purpose)
        finally:
            local.purpose = prev

    def rpc_call(self, op, *args, **kwargs):
        if id(self) not in channels:
            channels[id(self)] = (self, self.scalars_sent + self.scalars_received,
                                  self.transport_retries)
        idx = tracer.begin(f"rpc.{getattr(local, 'purpose', None) or 'data'}")
        try:
            return channel_call(self, op, *args, **kwargs)
        finally:
            tracer.end(idx)

    HostCluster.call = call
    RPCChannel.call = rpc_call
    tracer.rpc_channels = channels


def layer_metrics(tracer, fit: dict, wall: float) -> dict:
    """Per-round per-layer metrics from the traced fit's spans."""
    t = totals(tracer.closed_spans())
    rounds = len(fit["records"])

    def busy(name):
        return t.get(name, {}).get("busy", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    c = tracer.counters
    out = {}
    phases = ("select", "dispatch", "collect", "aggregate", "evaluate")
    for p in phases:
        out[f"server.{p}_s"] = busy(f"server.{p}") / rounds
        out[f"server.{p}_share"] = busy(f"server.{p}") / wall
    out["server.phase_cover"] = sum(busy(f"server.{p}") for p in phases) / wall
    train = busy("trainer.train")
    out["trainer.legs"] = calls("trainer.train") / rounds
    out["trainer.busy_s"] = train / rounds
    out["trainer.samples_per_s"] = (
        c["trainer.samples"] * fit["local_epochs"] / train if train else 0.0
    )
    out["execution.self_s"] = t.get("server.collect", {}).get("self", 0.0) / rounds
    out["gram.updates"] = calls("gram.update_row") / rounds
    out["gram.busy_s"] = busy("gram.update_row") / rounds
    out["selection.busy_s"] = busy("selection.select_all") / rounds
    out["crossaggr.busy_s"] = busy("crossaggr.cross_blend") / rounds
    out["globalgen.calls"] = calls("globalgen.global_state") / rounds
    out["globalgen.busy_s"] = busy("globalgen.global_state") / rounds
    out["eval.busy_s"] = busy("eval.evaluate_model") / rounds
    out["faults.collect_s"] = busy("faults.resilient_collect") / rounds
    for k in ("legs_dispatched", "legs_landed", "legs_carried", "retries"):
        out[f"faults.{k}"] = c[f"faults.{k}"] / rounds
    for p in ("data", "exec"):
        out[f"rpc.{p}_calls"] = calls(f"rpc.{p}") / rounds
        out[f"rpc.{p}_s"] = busy(f"rpc.{p}") / rounds
    chans = getattr(tracer, "rpc_channels", {}).values()
    out["rpc.scalars"] = sum(
        ch.scalars_sent + ch.scalars_received - s0 for ch, s0, _ in chans
    ) / rounds
    out["rpc.transport_retries"] = sum(
        ch.transport_retries - r0 for ch, _, r0 in chans
    ) / rounds
    out["async.adapter_s"] = (
        busy("async.upload_landed") + busy("async.complete_round")
    ) / rounds
    infos = [r["async"] for r in fit["records"]]
    spec = sum(i.get("speculative_blends", 0) for i in infos)
    redone = sum(
        i.get("speculative_reblends", 0) + i.get("reconcile_fixes", 0) for i in infos
    )
    out["async.speculative_blends"] = spec / rounds
    out["async.redone"] = redone / rounds
    out["async.spec_useful_frac"] = 1.0 - redone / spec if spec else 0.0
    out["async.stale_uploads"] = sum(i.get("stale_uploads", 0) for i in infos) / rounds
    out["comm.up_params"] = sum(r["up"] for r in fit["records"]) / rounds
    out["comm.down_params"] = sum(r["down"] for r in fit["records"]) / rounds
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "fit"), default="fit")
    ap.add_argument("--trace-out", default=None,
                    help="trace the fit and write Chrome trace JSON here")
    ap.add_argument("--stop-at-target", action="store_true",
                    help="end the fit once time_to_target_s is reached")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy  # noqa: F401

    from repro.data.federated import build_federated_dataset
    from repro.fl.simulation import FLSimulation

    t_import = time.monotonic()
    workload = WORKLOADS[args.workload]
    config = build_config(workload, args.seed)
    fed = build_federated_dataset(
        config.dataset,
        num_clients=config.num_clients,
        heterogeneity=config.heterogeneity,
        seed=DATA_SEED,
        **config.dataset_params,
    )
    t_data = time.monotonic()
    sim = FLSimulation(config, fed_dataset=fed)
    t_built = time.monotonic()
    out = {
        "setup": {
            "setup_s": t_built - T0,
            "import_s": t_import - T0,
            "data_s": t_data - t_import,
            "build_s": t_built - t_data,
        },
        "host": host_info(),
    }
    server = sim.server
    try:
        if args.mode == "fit":
            out["fit"] = run_fit(sim, workload, args.seed, args.trace_out,
                                 args.stop_at_target)
    finally:
        server.executor.close()
        if "repro.distributed.cluster" in sys.modules:
            sys.modules["repro.distributed.cluster"].shutdown_clusters()
    print(json.dumps(out))
    return 0


def run_fit(sim, workload, seed: int, trace_out: str | None, stop: bool) -> dict:
    server = sim.server
    if workload.stragglers:
        attach_stragglers(server, workload.stragglers, seed)
    recorder = Recorder(server, sim.config.local_epochs,
                        stop_at=workload.target if stop else None)
    tracer = None
    if trace_out:
        tracer = Tracer()
        install_tracer(tracer, server)
    recorder.start = start = time.perf_counter()
    server.fit(callbacks=[recorder.callback()])
    fit_s = time.perf_counter() - start
    recorder.finish()
    fit = {
        "fit_s": fit_s,
        "stopped": stop,
        "round_end_s": recorder.round_end_s,
        "evals": recorder.evals,
        "records": recorder.records,
        "k": sim.config.clients_per_round,
        "p": server.model_size,
        "local_epochs": sim.config.local_epochs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        fit["layers"] = layer_metrics(tracer, fit, recorder.round_end_s[-1])
        write_chrome_trace(trace_out, tracer.closed_spans(), start)
    return fit


if __name__ == "__main__":
    sys.exit(main())
