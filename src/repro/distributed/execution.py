"""Co-located client execution on the shard-host fleet.

:class:`DistributedExecution` is the ``distributed`` entry of the
execution-backend registry: each client's local-training leg runs **on
the shard host that owns its upload row**, so the trained ``P`` floats
are packed straight into the host-resident shard and never transit the
coordinator.  Per leg, the coordinator ships the dispatched state (one
buffer-dtype row), the hook specs and the client's RNG state; only
scalars — loss, sample/step counts, the advanced RNG state — ride
back.  Gram fan-outs (``masked_dots`` via the storage) run on the
hosts' ``data`` channels while legs occupy the ``exec`` channels, so
the server's collect overlaps similarity maintenance with remote
training exactly as it does with local threads.

The backend requires the upload buffer to live on
:class:`~repro.distributed.storage.DistributedStorage` — co-location
is meaningless against a coordinator-local matrix — and reuses that
buffer's :class:`~repro.distributed.cluster.HostCluster`.

Measured communication
----------------------
When the server attaches its :class:`~repro.fl.comm
.CommunicationLedger` (the ``ledger`` attribute every backend
carries), this backend records *measured* per-leg parameter counts —
one model down plus any hook payloads the spec declares in
``comm_down_fields`` at dispatch, one model up plus ``comm_up_fields``
at completion — and declares ``measures_comm`` so the server never
adds its analytic charge on top.  For FedCross and SCAFFOLD the measured
totals equal :func:`~repro.fl.comm.analytic_round_cost` exactly, which
the communication tests assert.

Determinism: legs train from the dispatched state and the client's
shipped RNG state with the same trainer arithmetic as every other
backend, and the roundtrip guards (integer + float) reject states the
buffer dtype cannot carry exactly — the distributed leg of the
cross-backend equivalence matrix is bitwise identical to serial.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

import numpy as np

from repro.distributed.rpc import DistributedError
from repro.fl.execution import (
    ExecutionBackend,
    LegGroup,
    _check_float_roundtrip,
    _check_parallel_cohort,
    _require_spec_hook,
    _trainer_hypers,
    register_execution,
)
from repro.fl.hooks import HookSpec
from repro.fl.trainer import LocalResult

__all__ = ["DistributedExecution", "LazyUploadState"]


def _hook_comm_extra(plan, attr: str) -> int:
    """Scalars a plan's hook payloads add to one transfer direction.

    Sums the sizes of the state mappings each spec declares under
    ``comm_down_fields`` / ``comm_up_fields`` — SCAFFOLD's control
    variate, FedGen's generator snapshot.  Raw-callable hooks never
    reach here (the spec guard rejects them first).
    """
    total = 0
    for hook in (plan.loss_hook, plan.grad_hook):
        if not isinstance(hook, HookSpec):
            continue
        for name in getattr(hook, attr, ()):
            value = getattr(hook, name, None)
            if isinstance(value, Mapping):
                total += sum(int(np.asarray(v).size) for v in value.values())
    return total


class LazyUploadState(Mapping):
    """Mapping view of an upload row, fetched from its shard on demand.

    The whole point of co-located execution is that trained rows stay
    on their hosts; a :class:`~repro.fl.trainer.LocalResult` still
    carries a ``state`` for callers that need one (SCAFFOLD reads the
    trained state to update control variates).  This mapping defers
    the row fetch until a value is actually requested — FedCross never
    requests one, so its rounds move zero trained rows to the
    coordinator.
    """

    def __init__(self, uploads, row: int) -> None:
        self._uploads = uploads
        self._row = int(row)
        self._state: dict | None = None

    def _fetch(self) -> dict:
        if self._state is None:
            self._state = self._uploads.as_state(self._row, copy=True)
        return self._state

    def __getitem__(self, key):
        return self._fetch()[key]

    def __iter__(self):
        return iter(self._uploads.layout.keys)

    def __len__(self) -> int:
        return len(self._uploads.layout.keys)

    def __contains__(self, key) -> bool:
        return key in self._uploads.layout.keys


@register_execution("distributed")
class DistributedExecution(ExecutionBackend):
    """Training legs scheduled on the shard hosts owning their rows."""

    #: Transfers are measured at the sockets (down at submit, up at
    #: land), so the server never adds its analytic charge on top —
    #: with overlapping async rounds, the per-round attribution is the
    #: landing window.
    measures_comm = True

    def __init__(self, spec=None, clients=(), workers=None) -> None:
        super().__init__(spec, clients, workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_width = 0

    def _ensure_pool(self, width: int) -> None:
        # One dispatcher thread per in-flight leg: each blocks on its
        # host's exec channel for the leg's full duration.
        if self._pool is None or self._pool_width < width:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._pool = ThreadPoolExecutor(
                max_workers=max(1, width), thread_name_prefix="repro-dist"
            )
            self._pool_width = max(1, width)

    def _submit(self, trainer, active, plans, rows, uploads, attacks=None):
        from repro.core.pool import _check_integer_roundtrip
        from repro.distributed.storage import DistributedStorage

        storage = uploads.storage
        if not isinstance(storage, DistributedStorage):
            raise DistributedError(
                "the distributed execution backend co-locates legs with "
                "their upload shards and requires the pool to live on the "
                f"'distributed' storage backend, got {uploads.backend!r}; "
                "run with --backend distributed (FLConfig.backend)"
            )
        n = min(len(active), len(plans))
        _check_parallel_cohort(active[:n], rows[:n])
        for plan in plans[:n]:
            _require_spec_hook(plan.loss_hook, "DispatchPlan.loss_hook")
            _require_spec_hook(plan.grad_hook, "DispatchPlan.grad_hook")
        if self.spec is None:
            raise RuntimeError(
                "distributed execution backend needs a TrainerSpec to build "
                "host-side trainer templates"
            )
        cluster = storage.cluster
        cluster.ensure_trainer(
            self.spec, {c.client_id: c.dataset for c in self.clients}
        )
        layout = uploads.layout
        # Flatten each unique dispatched state once (FedAvg-family plans
        # share one dict; FedCross plans are distinct pool rows) — the
        # packed row is what rides the wire to each leg's host.
        packed: dict[int, np.ndarray] = {}
        for plan in plans[:n]:
            key = id(plan.state)
            if key not in packed:
                if set(plan.state) != set(layout.keys):
                    raise KeyError(
                        "dispatched state keys do not match the model layout; "
                        "the distributed backend can only ship model-shaped "
                        "states"
                    )
                _check_integer_roundtrip(layout, plan.state, uploads.dtype)
                _check_float_roundtrip(layout, plan.state, uploads.dtype)
                row = np.empty(layout.total_size, dtype=uploads.dtype)
                layout.flatten_into(plan.state, row)
                packed[key] = row

        hypers = _trainer_hypers(trainer)
        ledger = self.ledger
        self._ensure_pool(n)
        futures = []
        up_extras = []
        for i, (client, plan) in enumerate(zip(active[:n], plans[:n])):
            host, local = storage.owner_of(int(rows[i]))
            blob = (
                pickle.dumps((plan.loss_hook, plan.grad_hook))
                if plan.loss_hook is not None or plan.grad_hook is not None
                else b""
            )
            meta = {
                "buffer": storage.buffer_id,
                "local_row": int(local),
                "client_id": client.client_id,
                "rng_state": client.rng.bit_generator.state,
                "hypers": hypers,
                "lr_override": plan.lr_override,
            }
            if attacks and i in attacks:
                # Byzantine leg: the owning host poisons its freshly
                # landed row from the dispatched row it already holds —
                # the attack happens at the upload boundary without the
                # trained state ever transiting the coordinator.
                meta["attack"] = attacks[i].to_wire()
            if ledger is not None:
                # Measured download: the dispatched model (no dedup —
                # K clients receiving the same global state still cost
                # K model downloads) plus declared hook payloads.
                ledger.record_down(
                    layout.total_size + _hook_comm_extra(plan, "comm_down_fields")
                )
            up_extras.append(_hook_comm_extra(plan, "comm_up_fields"))
            futures.append(
                self._pool.submit(
                    cluster.train_leg, host, meta, packed[id(plan.state)], blob
                )
            )
        return futures, up_extras

    def _landed(self, i, reply, active, rows, uploads, up_extras) -> LocalResult:
        """Book one completed leg: RNG, measured upload, replica note."""
        active[i].rng.bit_generator.state = reply["rng_state"]
        if self.ledger is not None:
            # Measured upload: the trained model landed in its shard
            # (K·P scalars of client→storage movement, the paper's
            # unit) plus declared hook payloads echoed upward.
            self.ledger.record_up(uploads.layout.total_size + up_extras[i])
        note = getattr(uploads.storage, "note_remote_write", None)
        if note is not None:
            # Replicated storage: the row now holds a trained state the
            # coordinator mirror does not — mark it dirty so a host
            # death before aggregation reports it as lost.
            note(int(rows[i]))
        return LocalResult(
            state=LazyUploadState(uploads, int(rows[i])),
            num_samples=int(reply["num_samples"]),
            num_steps=int(reply["num_steps"]),
            mean_loss=float(reply["mean_loss"]),
        )

    def reserve(self, width: int) -> None:
        # Pre-size the dispatcher pool for the whole overlap window so
        # a mid-flight _ensure_pool growth (shutdown+rebuild) can never
        # stall on in-flight legs of an earlier round.
        self._ensure_pool(int(width))

    def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
        # A fleet-level dispatch failure (dead host mid-broadcast)
        # raises here; the landing loop reports it as a failure of every
        # leg, so the resilience engine can recover the fleet and
        # resubmit instead of aborting.
        futures, up_extras = self._submit(
            trainer, active, plans, rows, uploads, attacks=attacks
        )

        def finalize(j, raw):
            return self._landed(j, raw, active, rows, uploads, up_extras)

        return LegGroup(futures, finalize)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_width = 0
