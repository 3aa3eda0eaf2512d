"""The four benchmark workloads: FedCross on ``synth_cifar10``, Dir(0.5).

Each workload is an ``FLConfig`` recipe plus what ``run.py`` checks:
the accuracy ``target`` that ``time_to_target_s`` is timed to (set in
the learning phase, after the early plateau), the ``acc_floor`` that
``acc_tail5`` must clear, and whether the round's comm must equal the
analytic ``2*K*P``.  ``rounds`` is the length of the run's one full fit;
the other fits stop at the target (see ``run.py``).  ``stopped`` of them
fill a 20-second run; ``--seconds`` scales that count, which is fixed by
the arguments, never by a measurement.

The run seed (``--seed``) becomes ``FLConfig.seed`` (model init, client
sampling, local shuffles, seeded faults and stragglers).  The federated
dataset is the workload's fixed input, built from ``DATA_SEED`` like a
benchmark dataset on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DATA_SEED = 0

_BASE = {
    "method": "fedcross",
    "dataset": "synth_cifar10",
    "heterogeneity": 0.5,
    "num_clients": 100,
    "eval_every": 1,
    "dataset_params": {"samples_per_client": 20},
    "lr": 0.05,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    target: float
    acc_floor: float
    stopped: int
    exact_comm: bool = False
    #: Seeded wall-clock stragglers attached around ``server.dispatch``:
    #: ``slow_prob``, ``slow_factor`` and ``base_delay`` seconds.
    stragglers: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.config["rounds"]

    def stopped_fits(self, seconds: float) -> int:
        return max(1, round(self.stopped * seconds / 20.0))

    @property
    def staleness(self) -> int | None:
        if self.config.get("round_mode") == "async":
            return self.config.get("max_staleness", 0)
        return None

    def processes(self) -> int:
        """Busy processes/threads the fit needs (coordinator included
        for the distributed fleet)."""
        if self.config.get("execution") == "distributed":
            return self.config["hosts"] + 1
        return self.config.get("workers") or 1

    def check_spec(self) -> dict:
        return {
            "rounds": self.rounds,
            "target": self.target,
            "acc_floor": self.acc_floor,
            "exact_comm": self.exact_comm,
            "staleness": self.staleness,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cnn_dirichlet",
            why="paper setting (CNN, K=10, 5 local epochs, serial sync): "
            "client training dominates; conv-kernel work shows, pool-engine "
            "work should not",
            config={**_BASE, "model": "cnn", "k_active": 10, "local_epochs": 5,
                    "rounds": 28,
                    "method_params": {"dynamic_alpha_rounds": 5}},
            target=0.6,
            acc_floor=0.75,
            stopped=3,
            exact_comm=True,
        ),
        Workload(
            name="wide_pool_k50",
            why="wide MLP pool with K=50, 1 local epoch: GramTracker row "
            "updates and CrossAggr dominate; pool-engine and memory work "
            "shows, conv kernels are absent",
            config={**_BASE, "model": "mlp",
                    "model_params": {"hidden_sizes": (256, 128)},
                    "k_active": 50, "local_epochs": 1, "rounds": 34,
                    "lr": 0.2},
            target=0.7,
            acc_floor=0.85,
            stopped=1,
            exact_comm=True,
        ),
        Workload(
            name="distributed_faults",
            why="MLP legs (P close to the CNN's) over socket RPC on one shard "
            "host, seeded-only faults, carry policy: collect runs through "
            "the fault engine and RPC, not in-process training",
            config={**_BASE, "model": "mlp",
                    "model_params": {"hidden_sizes": (512, 192)},
                    "k_active": 10, "local_epochs": 2,
                    "rounds": 40, "backend": "distributed",
                    "execution": "distributed", "hosts": 1,
                    "faults": {"availability": 0.9, "dropout": 0.1,
                               "slow_prob": 0.2, "slow_factor": 4.0,
                               "straggler_timeout": 3.0},
                    "failure_policy": "carry", "quorum": 0.1},
            target=0.6,
            acc_floor=0.8,
            stopped=1,
        ),
        Workload(
            name="async_stragglers",
            why="MLP on 2 thread workers, async rounds with staleness 1 and "
            "seeded stragglers: the only workload on the async scheduler "
            "and speculative CrossAggr",
            config={**_BASE, "num_clients": 40, "model": "mlp",
                    "model_params": {"hidden_sizes": (256, 128)},
                    "k_active": 10, "rounds": 48, "execution": "thread",
                    "workers": 2, "round_mode": "async", "max_staleness": 1},
            target=0.8,
            acc_floor=0.85,
            stopped=2,
            stragglers={"slow_prob": 0.3, "slow_factor": 4.0, "base_delay": 0.05},
        ),
    )
}


def build_config(workload: Workload, seed: int):
    from repro.fl.config import FLConfig

    return FLConfig(seed=seed, **workload.config)


def attach_stragglers(server, spec: dict, seed: int) -> None:
    """Seeded wall-clock stragglers: the fault model decides which legs
    are slow, a ``DelaySpec`` loss hook sleeps
    ``(speed - 1) * base_delay`` once in each of them."""
    from repro.faults import ClientPopulation
    from repro.faults.inject import DelaySpec

    pop = ClientPopulation(
        {"slow_prob": spec["slow_prob"], "slow_factor": spec["slow_factor"]},
        seed=seed,
        num_clients=server.config.num_clients,
    )
    original = server.dispatch

    def dispatch(active):
        plans = original(active)
        for client, plan in zip(active, plans):
            speed = pop.leg_fault(server.round_idx, client.client_id).speed
            if speed > 1.0:
                plan.loss_hook = DelaySpec(
                    seconds=(speed - 1.0) * spec["base_delay"], once=True
                )
        return plans

    server.dispatch = dispatch
