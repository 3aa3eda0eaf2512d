"""Pluggable client-execution backends for the ``collect`` phase.

The :class:`~repro.fl.server.FederatedServer`'s ``collect`` phase trains
the round's K active clients.  Mathematically those K local updates are
embarrassingly parallel — every client owns an independent RNG stream, a
private shard, and a dedicated upload-buffer row — but the original
implementation ran them strictly sequentially on one process, so a
round cost K× one local update regardless of core count.

This module makes *where the K updates run* a pluggable backend, in the
same registry style as :mod:`repro.core.storage`'s pool backends:

``serial``
    :class:`SerialExecution` — the original in-process loop on the
    server's shared trainer template.  The default, and the reference
    behaviour every other backend must reproduce bit-for-bit.
``thread``
    :class:`ThreadExecution` — a persistent thread pool, one private
    model/trainer template per worker thread.  Threads write their
    upload rows straight into the server's pool buffer.  Python-level
    training code still serialises on the GIL, so the win is bounded by
    the NumPy/BLAS fraction of the workload; useful mostly as the
    shared-memory stepping stone and for GIL-free builds.
``process``
    :class:`ProcessExecution` — a persistent ``ProcessPoolExecutor``
    whose workers each hold a reusable model/trainer template (built
    once from a picklable :class:`TrainerSpec`) plus the full client
    shard table (shipped once at pool start-up, inherited for free
    under the ``fork`` start method).  Dispatch states and trained
    uploads cross the process boundary through
    :mod:`multiprocessing.shared_memory` ``(K, P)`` buffers: the server
    packs each unique dispatched state into a shared dispatch row, and
    the worker packs its trained state **directly into its upload row**
    via :meth:`repro.utils.layout.StateLayout.flatten_into` — the ``P``
    floats per client are written exactly once, never pickled through
    the result queue.  Only scalars (sample counts, loss, the client's
    advanced RNG state) ride back through the future.
``distributed``
    :class:`~repro.distributed.execution.DistributedExecution` (lazy —
    lives in :mod:`repro.distributed`, imported on first selection) —
    each leg runs on the socket-RPC shard host owning its upload row,
    so the trained state lands in its shard without transiting the
    coordinator.  Requires the pool on ``distributed`` storage.

One execution seam
------------------
A backend implements one primitive, :meth:`ExecutionBackend.submit_group`:
submit the cohort's legs without blocking and return a :class:`LegGroup`
of futures.  Everything else — waiting, landing each leg on the
caller's thread, the wall-clock deadline, cancel-and-drain on early
exit, converting leg errors into structured
:class:`~repro.faults.policy.LegFailure` records — is one landing loop
(:func:`_land`) shared by every caller.  :class:`ClientExecutor`'s
``run`` / ``run_streaming`` / ``run_streaming_captured`` are thin
consumers of that loop, and the async round scheduler drives
``submit_group`` directly for cross-round overlap.  Landed legs are
yielded as they complete — in plan order within one wakeup, so
``serial`` (whose groups complete eagerly) keeps the reference plan
order — and the server packs uploads and feeds FedCross's incremental
Gram tracker *while* slower legs are still training.

Dispatch dedup for round-shared payloads
----------------------------------------
Hook specs may declare :attr:`~repro.fl.hooks.HookSpec.shared_fields`
— state mappings identical across a round's plans (SCAFFOLD's
``c_global``, FedGen's generator snapshot).  The ``process`` backend
packs each unique payload into a shared-memory row once per group
(:class:`_PayloadPacker`) and ships a tiny :class:`SharedStateRef` per
task instead; workers rebuild the mapping once per round from a
per-worker cache.  The arrays cross the process boundary zero times
after the segment mapping — previously they were pickled once per
client per round.

Determinism contract
--------------------
All backends produce **bit-identical** training histories and upload
buffers for the same config/seed: each client's batch shuffling draws
from its own generator (round-tripped through workers by state), hook
specs own their RNG streams, float32 states survive the shared-memory
round trip exactly, and results are returned in plan order regardless
of completion order.  Two carve-outs: models whose *layers* own RNG
streams shared across clients via the serial trainer template (e.g.
``nn.Dropout``'s mask stream) consume that stream in client order under
``serial`` — such models are only reproducible on the serial backend —
and *raw-callable* hooks that close over shared mutable state (a
server-side RNG, an accumulator) are invoked in completion order by
``thread``, so only stateless raw hooks keep the guarantee there; make
shared-state hooks a :class:`~repro.fl.hooks.HookSpec` with per-client
streams (as FedGen's distillation spec does) or run them on ``serial``.

Hooks must be :class:`~repro.fl.hooks.HookSpec` instances (not raw
closures) to cross the process boundary; ``serial`` and ``thread``
accept both (``process`` rejects raw callables loudly).

Backends register on :data:`EXECUTION_BACKENDS` via
:func:`register_execution`; selection is wired through
``FLConfig.execution`` / ``FLConfig.workers`` and the CLI flags
``--execution`` / ``--workers``.
"""

from __future__ import annotations

import atexit
import contextlib
import copy
import functools
import itertools
import os
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.faults.policy import LegFailure
from repro.fl.hooks import HookSpec, resolve_hook
from repro.fl.trainer import LocalResult, LocalTrainer
from repro.utils.layout import StateLayout
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pool import PoolBuffer
    from repro.fl.client import Client
    from repro.fl.server import DispatchPlan
    from repro.nn.module import Module
    from repro.robust.attacks import AttackSpec

__all__ = [
    "TrainerSpec",
    "SharedStateRef",
    "LegGroup",
    "ExecutionBackend",
    "SerialExecution",
    "ThreadExecution",
    "ProcessExecution",
    "ClientExecutor",
    "EXECUTION_BACKENDS",
    "register_execution",
    "resolve_execution",
    "available_executions",
]


EXECUTION_BACKENDS = Registry("execution backend", error_type=KeyError)


def register_execution(name: str):
    """Class decorator registering an :class:`ExecutionBackend`."""
    return EXECUTION_BACKENDS.register(name)


def resolve_execution(name: str) -> type["ExecutionBackend"]:
    """Backend class registered under ``name`` (case-insensitive)."""
    return EXECUTION_BACKENDS.resolve(name)


def available_executions() -> list[str]:
    return EXECUTION_BACKENDS.available()


# -- trainer template -------------------------------------------------------
@dataclass
class TrainerSpec:
    """Picklable recipe for a worker's private model/trainer template.

    ``model_factory`` is any zero-argument picklable callable returning
    a fresh :class:`~repro.nn.module.Module` (the simulation passes a
    :func:`functools.partial` over the model registry); the remaining
    fields mirror :class:`~repro.fl.trainer.LocalTrainer`'s settings.

    ``array_backend`` pins the array backend (see
    :mod:`repro.tensor.backend`) the template is built — and every leg
    trained — on.  Because the spec travels to process workers and
    :meth:`build` runs inside them, this is how a run's backend choice
    reaches worker processes that never saw the server's
    ``set_array_backend`` call.  ``None`` keeps each process's active
    backend.
    """

    model_factory: Callable[[], "Module"]
    local_epochs: int = 5
    batch_size: int = 50
    lr: float = 0.01
    momentum: float = 0.5
    weight_decay: float = 0.0
    array_backend: str | None = None

    def build(self) -> LocalTrainer:
        """Materialise a private trainer around a fresh model."""
        if self.array_backend is not None:
            from repro.tensor.backend import set_array_backend

            set_array_backend(self.array_backend)
        return LocalTrainer(
            self.model_factory(),
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )

    @classmethod
    def from_trainer(
        cls,
        trainer: LocalTrainer,
        model_factory: "Callable[[], Module] | None" = None,
        array_backend: str | None = None,
    ) -> "TrainerSpec":
        """Spec mirroring ``trainer``; falls back to deep-copying its
        model template when no explicit factory is supplied."""
        factory = (
            model_factory
            if model_factory is not None
            else functools.partial(copy.deepcopy, trainer.model)
        )
        return cls(
            model_factory=factory,
            local_epochs=trainer.local_epochs,
            batch_size=trainer.batch_size,
            lr=trainer.lr,
            momentum=trainer.momentum,
            weight_decay=trainer.weight_decay,
            array_backend=array_backend,
        )


_HYPER_FIELDS = ("local_epochs", "batch_size", "lr", "momentum", "weight_decay")


def _trainer_hypers(trainer: LocalTrainer) -> dict:
    """The live trainer's per-leg settings, captured per submission.

    Parallel backends apply these to their private templates before
    every leg, so mid-run mutations of the server's trainer (e.g. the
    experiments' per-round LR decay, ``sim.trainer.lr = ...``) are
    honoured exactly as the serial backend honours them.
    """
    return {field: getattr(trainer, field) for field in _HYPER_FIELDS}


def _apply_hypers(trainer: LocalTrainer, hypers: dict) -> None:
    for field, value in hypers.items():
        setattr(trainer, field, value)


def _default_workers(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return int(workers)
    return os.cpu_count() or 1


def _check_parallel_cohort(active: "Sequence[Client]", rows: Sequence[int]) -> None:
    """Parallel preconditions: distinct rows *and* distinct clients.

    Duplicate rows would race on one buffer slice; a duplicate client
    would train both legs from the same RNG snapshot (serial advances
    the stream between legs), silently breaking the bit-identical
    contract — so both are errors rather than divergences.
    """
    if len(set(rows)) != len(rows):
        raise ValueError(
            "parallel execution backends require unique upload-buffer rows "
            f"per plan, got {list(rows)}"
        )
    ids = [client.client_id for client in active]
    if len(set(ids)) != len(ids):
        raise ValueError(
            "parallel execution backends require each client at most once "
            f"per cohort, got client ids {ids}"
        )


class LegGroup:
    """One submission batch of in-flight training legs.

    What :meth:`ExecutionBackend.submit_group` returns: ``futures[j]``
    resolves to the backend's raw per-leg payload, ``finalize(j, raw)``
    turns it into a landed :class:`~repro.fl.trainer.LocalResult` on
    the *caller's* thread (RNG restore, upload-row copy, attack
    application), and ``leg_done()`` — called once per leg after it is
    finalized, failed or drained — releases group-scoped resources
    (the process backend's shared-memory blocks) once every leg is
    accounted for.
    """

    __slots__ = ("futures", "_finalize", "_release", "_outstanding")

    def __init__(self, futures, finalize=None, release=None) -> None:
        self.futures = list(futures)
        self._finalize = finalize
        self._release = release
        self._outstanding = len(self.futures)

    def finalize(self, j: int, raw):
        return raw if self._finalize is None else self._finalize(j, raw)

    def leg_done(self) -> None:
        self._outstanding -= 1
        if self._outstanding <= 0 and self._release is not None:
            release, self._release = self._release, None
            release()


# -- backend protocol -------------------------------------------------------
class ExecutionBackend:
    """Submits one cohort's local-training legs; the one execution seam.

    The contract of :meth:`submit_group`: train ``active[j]`` from
    ``plans[j]`` and return a :class:`LegGroup` whose finalized legs
    have packed the trained state into ``uploads`` row ``rows[j]`` and
    advanced each client's RNG exactly as serial training would.
    Waiting, landing order, deadlines and failure capture are not the
    backend's business — :class:`ClientExecutor`'s landing loop and the
    async round scheduler own them.
    """

    name = "abstract"

    #: Optional :class:`~repro.fl.comm.CommunicationLedger` attached by
    #: the server.  Backends that *measure* real transfers (the
    #: ``distributed`` backend counts the parameters actually crossing
    #: its sockets) record into it; in-process backends ignore it
    #: (nothing moves).
    ledger = None

    #: True when the backend itself *measures* real transfers into the
    #: ledger (the ``distributed`` backend records per-socket traffic at
    #: submit/land time).  The server — sync and async alike — never
    #: adds its analytic charge on top of a measuring backend.
    measures_comm = False

    def __init__(
        self,
        spec: TrainerSpec | None = None,
        clients: "Sequence[Client]" = (),
        workers: int | None = None,
    ) -> None:
        self.spec = spec
        self.clients = list(clients)
        self.workers = workers

    def reserve(self, width: int) -> None:
        """Hint: up to ``width`` legs may be in flight concurrently.

        The async round scheduler calls this once before overlapping
        rounds so pooled backends can pre-size their worker pools
        instead of growing them mid-flight.  The base implementation is
        a no-op.
        """

    def submit_group(
        self,
        trainer: LocalTrainer,
        active: "list[Client]",
        plans: "list[DispatchPlan]",
        rows: Sequence[int],
        uploads: "PoolBuffer",
        attacks: "Mapping[int, AttackSpec] | None" = None,
    ) -> "LegGroup":
        """Submit legs without blocking; return a :class:`LegGroup`.

        The caller owns the wait loop and may hold several groups (from
        different rounds) in flight at once.  ``attacks`` maps plan
        indices to Byzantine :class:`~repro.robust.attacks.AttackSpec`
        instances applied at the landing boundary (see
        :func:`_attacked_result`).  An exception raised here counts as a
        failure of every leg.
        """
        raise NotImplementedError(
            f"execution backend {self.name!r} does not implement submit_group"
        )

    def close(self) -> None:
        """Release pools/buffers; the backend lazily re-creates them on
        the next :meth:`submit_group`, so close is always safe."""


def _attacked_result(spec, plan, row, uploads, result: LocalResult) -> LocalResult:
    """Poison leg ``row`` at the upload boundary; rebuilt result.

    The buffer row is rewritten in place (so streaming consumers — the
    incremental Gram, screening, aggregation — all see the poisoned
    upload) and the yielded result's state is re-read from the buffer,
    never from the honest trained state.  Coordinator-side twin of the
    distributed backend's host-side application: both flatten the
    dispatched state in the buffer dtype and transform in float64, so
    the poisoned bytes are bit-identical across backends.
    """
    from repro.robust.attacks import apply_upload_attack

    apply_upload_attack(spec, uploads, int(row), plan.state)
    return LocalResult(
        state=uploads.as_state(int(row), copy=True),
        num_samples=result.num_samples,
        num_steps=result.num_steps,
        mean_loss=result.mean_loss,
    )


def _leg_failure(active, rows, i: int, kind: str, exc=None, drained=False) -> LegFailure:
    """Structured failure for leg ``i`` of the current submission."""
    if exc is None:
        message = "leg did not finish before the wall-clock deadline"
    else:
        message = f"{type(exc).__name__}: {exc}"
    return LegFailure(
        index=int(i),
        client_id=active[i].client_id,
        row=int(rows[i]),
        kind=kind,
        message=message,
        drained=drained,
        error=exc,
    )


def _land(
    group: LegGroup, active, rows, timeout: float | None = None
) -> "Iterator[tuple[int, LocalResult | LegFailure]]":
    """The landing loop: yield each leg of ``group`` as it completes.

    Every leg comes out exactly once, as a finalized
    :class:`~repro.fl.trainer.LocalResult` or — when its future raised
    or its finalize failed — an ``error``
    :class:`~repro.faults.policy.LegFailure`.  Legs that land in the
    same wakeup are yielded in plan-index order.

    ``timeout`` is the wall-clock deadline for the whole group, with
    drain-then-fail semantics: at the deadline, unstarted legs are
    cancelled, in-flight ones are *awaited to completion* and their
    results discarded, and only then are the ``timeout`` failures
    yielded — so no worker ever writes into the reused upload buffer
    (or mutates a client RNG) after the caller has moved on, and a
    carry/redispatch overwrite of the row cannot race a zombie leg.
    A consumer abandoning the stream gets the same cancel-and-drain.
    """
    futures = group.futures
    index = {future: j for j, future in enumerate(futures)}
    pending = set(futures)
    deadline = None if timeout is None else time.monotonic() + float(timeout)
    try:
        while pending:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            done, _ = wait(pending, timeout=remaining, return_when=FIRST_COMPLETED)
            landed = []
            for j in sorted(index[future] for future in done):
                pending.discard(futures[j])
                try:
                    leg = group.finalize(j, futures[j].result())
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - captured
                    leg = _leg_failure(active, rows, j, "error", exc)
                finally:
                    group.leg_done()
                landed.append((j, leg))
            yield from landed
            if not done and deadline is not None and time.monotonic() >= deadline:
                late = sorted(index[future] for future in pending)
                _drain(pending, group)
                pending = set()
                for j in late:
                    yield j, _leg_failure(active, rows, j, "timeout", drained=True)
    finally:
        if pending:
            _drain(pending, group)


def _drain(pending, group: LegGroup) -> None:
    """Cancel unstarted legs, await in-flight ones, account for all."""
    for future in pending:
        future.cancel()
    wait(list(pending))
    for _ in pending:
        group.leg_done()


@register_execution("serial")
class SerialExecution(ExecutionBackend):
    """The original sequential in-process loop (reference behaviour)."""

    def submit_group(
        self, trainer, active, plans, rows, uploads, attacks=None
    ) -> LegGroup:
        # Legs train eagerly on the caller's thread, in plan order, so
        # the returned group is already complete: the landing loop
        # yields it in plan order (the reference schedule), a wall-clock
        # deadline can never expire, and the async driver degenerates
        # to strictly sequential rounds — the property the
        # bitwise-equivalence leg of the matrix relies on.
        futures: list[Future] = []
        for i, (client, plan) in enumerate(zip(active, plans)):
            future: Future = Future()
            try:
                result = client.train(
                    trainer,
                    plan.state,
                    loss_hook=resolve_hook(plan.loss_hook, plan.state),
                    grad_hook=resolve_hook(plan.grad_hook, plan.state),
                    lr_override=plan.lr_override,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - captured
                future.set_exception(exc)
            else:
                uploads.set_state(rows[i], result.state)
                if attacks and i in attacks:
                    result = _attacked_result(
                        attacks[i], plan, rows[i], uploads, result
                    )
                future.set_result(result)
            futures.append(future)
        return LegGroup(futures)


@register_execution("thread")
class ThreadExecution(ExecutionBackend):
    """Persistent thread pool; one private trainer template per worker."""

    def __init__(self, spec=None, clients=(), workers=None) -> None:
        super().__init__(spec, clients, workers)
        self._num_workers = _default_workers(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._templates: list[LocalTrainer] = []
        self._free: list[LocalTrainer] = []

    def _ensure_pool(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._num_workers, thread_name_prefix="repro-exec"
            )

    def _acquire_trainer(self) -> LocalTrainer:
        # Called from worker threads: pop/append are individually atomic
        # and the empty-pop race is handled by falling through to build
        # (the pool never runs more tasks than workers concurrently, so
        # at most `workers` templates are ever built).
        try:
            return self._free.pop()
        except IndexError:
            pass
        if self.spec is None:
            raise RuntimeError(
                "thread execution backend needs a TrainerSpec to build "
                "per-worker trainer templates"
            )
        trainer = self.spec.build()
        self._templates.append(trainer)
        return trainer

    def _leg(self, i: int, client, plan, rows, uploads, hypers) -> LocalResult:
        worker_trainer = self._acquire_trainer()
        try:
            _apply_hypers(worker_trainer, hypers)
            result = client.train(
                worker_trainer,
                plan.state,
                loss_hook=resolve_hook(plan.loss_hook, plan.state),
                grad_hook=resolve_hook(plan.grad_hook, plan.state),
                lr_override=plan.lr_override,
            )
            # Rows are unique, so concurrent writes touch disjoint
            # slices of the upload matrix.
            uploads.set_state(rows[i], result.state)
            return result
        finally:
            self._free.append(worker_trainer)

    def reserve(self, width: int) -> None:
        # Grow the pool so overlapping rounds never queue behind one
        # cohort's width (ThreadPoolExecutor cannot shrink, only grow).
        width = max(int(width), self._num_workers)
        if self._pool is not None and width > self._num_workers:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._num_workers = width
        self._ensure_pool()

    def submit_group(
        self, trainer, active, plans, rows, uploads, attacks=None
    ) -> LegGroup:
        _check_parallel_cohort(active[: len(plans)], rows[: len(plans)])
        self._ensure_pool()
        hypers = _trainer_hypers(trainer)
        futures = [
            self._pool.submit(self._leg, i, client, plan, rows, uploads, hypers)
            for i, (client, plan) in enumerate(zip(active, plans))
        ]
        attack_map = dict(attacks) if attacks else {}

        def finalize(j: int, raw: LocalResult) -> LocalResult:
            # Runs on the landing thread after the leg landed: rows are
            # unique across in-flight groups, so no worker races it.
            if j in attack_map:
                return _attacked_result(
                    attack_map[j], plans[j], rows[j], uploads, raw
                )
            return raw

        return LegGroup(futures, finalize)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._templates.clear()
        self._free.clear()


# -- process backend --------------------------------------------------------
def _release_shared_memory(shm) -> None:
    try:
        shm.close()
    except Exception:  # pragma: no cover - interpreter teardown
        pass
    try:
        shm.unlink()
    except Exception:  # pragma: no cover - already unlinked
        pass


# Every live _SharedBlock, so an interrupted run (KeyboardInterrupt in
# the middle of a round, an exception unwinding past the executor) still
# unlinks its /dev/shm segments at interpreter exit instead of leaking
# them until reboot.  Weak references: normal GC/close stays the primary
# release path and the sweep never extends a block's lifetime.
_LIVE_BLOCKS: "weakref.WeakSet[_SharedBlock]" = weakref.WeakSet()


def _cleanup_shared_blocks() -> None:
    for block in list(_LIVE_BLOCKS):
        block.close()


atexit.register(_cleanup_shared_blocks)


class _SharedBlock:
    """Owner of one shared-memory-backed ``(K, P)`` ndarray.

    ``ref`` is the picklable handle (name, shape, dtype) workers use to
    attach.  The segment is unlinked when the block is closed or
    garbage-collected, so reallocation on pool-size changes never leaks
    ``/dev/shm`` segments.
    """

    def __init__(self, shape: tuple[int, int], dtype) -> None:
        from multiprocessing import shared_memory  # local: optional at import

        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.array = np.ndarray(tuple(shape), dtype=dtype, buffer=self.shm.buf)
        self.ref = (self.shm.name, tuple(int(s) for s in shape), dtype.str)
        self._finalizer = weakref.finalize(self, _release_shared_memory, self.shm)
        _LIVE_BLOCKS.add(self)

    def close(self) -> None:
        self.array = None
        self._finalizer()


@dataclass(frozen=True)
class SharedStateRef:
    """Picklable pointer to a round-shared state dict in shared memory.

    The dispatch-dedup transport for :attr:`HookSpec.shared_fields`
    payloads (SCAFFOLD's ``c_global``, FedGen's generator state): the
    server packs each unique payload into one float64 row of a payload
    segment and ships this tiny ref per task instead of re-pickling
    the arrays per client.  Workers rebuild the mapping from
    ``signature`` via :meth:`repro.utils.layout.StateLayout
    .from_signature` and cache it per ``(segment, row)`` until
    ``version`` moves on — one unflatten per worker per round.
    """

    ref: tuple  # (shm name, shape, dtype str) — _SharedBlock.ref
    row: int
    version: int
    signature: tuple


def _new_block(rows: int, cols: int, dtype) -> "_SharedBlock":
    return _SharedBlock((rows, cols), dtype)


class _PayloadPacker:
    """Packs one submission group's round-shared payloads into shm.

    One float64 :class:`_SharedBlock` per payload layout signature,
    drawn from ``acquire(rows, cols, dtype)`` (the process backend's
    free list; a fresh block by default) and handed back with the
    group through :attr:`blocks`.  Rows are float64 so narrower float
    payloads round-trip exactly (SCAFFOLD's variates *are* float64 and
    must not be narrowed — the same guard rails as the dispatch rows
    apply).

    ``versions`` yields each pack's freshness token.  A recycled
    segment row may carry a different payload in a later group and the
    worker-side cache keys on ``(segment, row, version)``, so every
    packer sharing a backend's segments must draw from one counter.
    """

    def __init__(self, acquire=_new_block, versions=None) -> None:
        self._acquire = acquire
        self._versions = versions if versions is not None else itertools.count(1)
        self._blocks: dict[tuple, _SharedBlock] = {}

    @property
    def blocks(self) -> "list[_SharedBlock]":
        return list(self._blocks.values())

    def pack_round(self, plans) -> list[tuple]:
        """Strip shared payloads from every plan's hooks for transit.

        Returns one ``(loss_hook, grad_hook)`` pair per plan where each
        spec carrying shared payloads is replaced by a shallow copy
        holding :class:`SharedStateRef` placeholders (originals are
        never mutated — the server reuses them across rounds).  Each
        unique payload (by identity) is packed once, however many plans
        reference it.
        """
        version = next(self._versions)
        unique: dict[int, tuple] = {}  # id(payload) -> (payload, layout)
        counts: dict[tuple, int] = {}
        for plan in plans:
            for hook in (plan.loss_hook, plan.grad_hook):
                for _, value in self._shared_items(hook):
                    if id(value) not in unique:
                        layout = StateLayout.from_state(value)
                        unique[id(value)] = (value, layout)
                        sig = layout.signature
                        counts[sig] = counts.get(sig, 0) + 1
        from repro.core.pool import _check_integer_roundtrip

        refs: dict[int, SharedStateRef] = {}
        next_row: dict[tuple, int] = {}
        for sig, count in counts.items():
            self._ensure_block(sig, count)
        for key, (value, layout) in unique.items():
            sig = layout.signature
            block = self._blocks[sig]
            row = next_row.get(sig, 0)
            next_row[sig] = row + 1
            _check_integer_roundtrip(layout, value, block.array.dtype)
            _check_float_roundtrip(layout, value, block.array.dtype)
            layout.flatten_into(value, block.array[row])
            refs[key] = SharedStateRef(
                ref=block.ref, row=row, version=version, signature=sig
            )
        return [
            (
                self._strip(plan.loss_hook, refs),
                self._strip(plan.grad_hook, refs),
            )
            for plan in plans
        ]

    @staticmethod
    def _shared_items(hook):
        if not isinstance(hook, HookSpec):
            return
        for name in getattr(hook, "shared_fields", ()):
            value = getattr(hook, name, None)
            if isinstance(value, Mapping) and len(value):
                yield name, value

    def _strip(self, hook, refs: dict):
        clone = None
        for name, value in self._shared_items(hook):
            ref = refs.get(id(value))
            if ref is None:  # pragma: no cover - pack_round covers all plans
                continue
            if clone is None:
                clone = copy.copy(hook)
            setattr(clone, name, ref)
        return clone if clone is not None else hook

    def _ensure_block(self, sig: tuple, rows: int) -> None:
        layout = StateLayout.from_signature(sig)
        block = self._blocks.get(sig)
        if (
            block is not None
            and block.array is not None
            and block.array.shape[0] >= rows
        ):
            return
        if block is not None:
            block.close()
        self._blocks[sig] = self._acquire(rows, layout.total_size, np.float64)

    def live_names(self) -> set[str]:
        return {
            block.shm.name
            for block in self._blocks.values()
            if block.array is not None
        }

    def close(self) -> None:
        for block in self._blocks.values():
            block.close()
        self._blocks.clear()


# Worker-process state: trainer template, layout, client shards,
# attached shared-memory segments, and reconstructed round-shared
# payloads — built once per worker, reused for every (client, round)
# task.
_WORKER: dict = {}


def _worker_init(spec: TrainerSpec, datasets: dict) -> None:
    trainer = spec.build()
    _WORKER["trainer"] = trainer
    _WORKER["datasets"] = datasets
    _WORKER["shm"] = {}
    _WORKER["payloads"] = {}
    _WORKER["layout"] = StateLayout.from_state(trainer.model.state_dict())


def _worker_attach(ref: tuple) -> np.ndarray:
    """Attach (and cache) a shared block by its picklable ref."""
    name, shape, dtype_str = ref
    cache = _WORKER["shm"]
    entry = cache.get(name)
    if entry is None:
        from multiprocessing import shared_memory

        # Attaching registers with the resource tracker (shared with the
        # server process under fork/spawn); that is idempotent, and the
        # server's unlink performs the single matching unregister — the
        # worker must NOT unregister, or the later unlink double-frees
        # the tracker entry.
        shm = shared_memory.SharedMemory(name=name)
        array = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str), buffer=shm.buf)
        cache[name] = (shm, array)
        entry = cache[name]
    return entry[1]


def _worker_prune_shm(live_names: set[str]) -> None:
    """Drop mappings of segments the server has since reallocated."""
    cache = _WORKER["shm"]
    for name in [n for n in cache if n not in live_names]:
        shm, _ = cache.pop(name)
        try:
            shm.close()
        except Exception:  # pragma: no cover
            pass
    payloads = _WORKER.setdefault("payloads", {})
    for key in [k for k in payloads if k[0] not in live_names]:
        del payloads[key]


def _worker_payload(ref: SharedStateRef) -> Mapping[str, np.ndarray]:
    """Reconstruct (and cache) one round-shared payload from its ref.

    Cached per ``(segment, row)`` with the packer's version as the
    freshness token, so each worker unflattens a given payload once
    per round regardless of how many of its tasks reference it.
    """
    payloads = _WORKER.setdefault("payloads", {})
    key = (ref.ref[0], ref.row)
    hit = payloads.get(key)
    if hit is not None and hit[0] == ref.version:
        return hit[1]
    layout = StateLayout.from_signature(ref.signature)
    block = _worker_attach(ref.ref)
    value = layout.unflatten(block[ref.row], copy=True)
    payloads[key] = (ref.version, value)
    return value


def _worker_restore_shared(hook):
    """Swap :class:`SharedStateRef` placeholders back for real mappings.

    The spec instance arrived pickled and is private to this task, so
    in-place restoration is safe.
    """
    if not isinstance(hook, HookSpec):
        return hook
    for name in getattr(hook, "shared_fields", ()):
        value = getattr(hook, name, None)
        if isinstance(value, SharedStateRef):
            setattr(hook, name, _worker_payload(value))
    return hook


def _process_leg(task: dict):
    """One client's local-training leg, run inside a pool worker.

    Reads the dispatched state out of the shared dispatch row, trains on
    the worker's cached shard with the client's RNG stream, packs the
    trained state straight into the shared upload row, and returns only
    scalars plus the advanced RNG state.
    """
    from repro.core.pool import _check_integer_roundtrip

    trainer: LocalTrainer = _WORKER["trainer"]
    _apply_hypers(trainer, task["hypers"])
    layout = _WORKER["layout"]
    _worker_prune_shm(set(task["live_names"]))
    dispatch = _worker_attach(task["dispatch_ref"])
    upload = _worker_attach(task["upload_ref"])

    state = layout.unflatten(dispatch[task["dispatch_row"]], copy=True)
    rng = np.random.default_rng()
    rng.bit_generator.state = task["rng_state"]
    dataset = _WORKER["datasets"][task["client_id"]]

    result = trainer.train(
        state,
        dataset,
        rng,
        loss_hook=resolve_hook(_worker_restore_shared(task["loss_hook"]), state),
        grad_hook=resolve_hook(_worker_restore_shared(task["grad_hook"]), state),
        lr_override=task["lr_override"],
    )
    # Guard both directions of the shm transport: the trained state must
    # survive the buffer dtype exactly, or the server-side
    # ``result.state`` view would silently differ from serial's native
    # result (e.g. a float64 buffer field trained to float32-inexact
    # values).
    _check_integer_roundtrip(layout, result.state, upload.dtype)
    _check_float_roundtrip(layout, result.state, upload.dtype)
    layout.flatten_into(result.state, upload[task["upload_row"]])
    return (
        result.num_samples,
        result.num_steps,
        result.mean_loss,
        rng.bit_generator.state,
    )


def _require_spec_hook(hook, which: str) -> None:
    if hook is None or isinstance(hook, HookSpec):
        return
    raise TypeError(
        f"{which} is a raw callable, which cannot cross the process "
        "boundary; dispatch a picklable repro.fl.hooks.HookSpec instead "
        "(or use the 'serial'/'thread' execution backend)"
    )


def _check_float_roundtrip(layout, state, dtype) -> None:
    """Refuse to narrow float state through a thinner shm buffer.

    The serial backend hands the dispatched dict to the trainer as-is;
    the process backend ships it through the buffer-dtype shm row.  A
    float field *wider* than the buffer dtype whose values do not
    survive the round trip would make workers train from different
    weights than serial — a silent break of the bit-identical contract
    — so fail loudly instead (the all-float32 common case skips this
    entirely).
    """
    buffer_dtype = np.dtype(dtype)
    for spec in layout.fields:
        value = np.asarray(state[spec.key])
        if value.dtype.kind != "f" or value.dtype.itemsize <= buffer_dtype.itemsize:
            continue
        if value.size and not np.array_equal(
            value.astype(buffer_dtype).astype(value.dtype), value
        ):
            raise ValueError(
                f"float field {spec.key!r} ({value.dtype}) does not survive the "
                f"{buffer_dtype} shared-memory round trip; dispatch "
                f"{buffer_dtype}-exact states or use the 'serial'/'thread' "
                "execution backend"
            )


@register_execution("process")
class ProcessExecution(ExecutionBackend):
    """Persistent worker processes + shared-memory state transport.

    Each submission group draws a private dispatch block, upload block
    and round-shared payload blocks from one free list and returns them
    when its last leg is accounted for — so overlapping groups (async
    rounds) never share a row, and steady-state rounds reuse the same
    segments instead of reallocating them.  Dispatch *and* upload rows
    are indexed by plan position, never pool row (two in-flight groups
    may reuse a pool row across a carry).
    """

    def __init__(self, spec=None, clients=(), workers=None) -> None:
        super().__init__(spec, clients, workers)
        self._num_workers = _default_workers(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._owned: list[_SharedBlock] = []  # every live block, free or in flight
        self._free: list[_SharedBlock] = []
        self._payload_versions = itertools.count(1)

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        if self.spec is None:
            raise RuntimeError(
                "process execution backend needs a TrainerSpec to build "
                "worker-side trainer templates"
            )
        datasets = {c.client_id: c.dataset for c in self.clients}
        self._pool = ProcessPoolExecutor(
            max_workers=self._num_workers,
            initializer=_worker_init,
            initargs=(self.spec, datasets),
        )

    def _acquire(self, rows: int, cols: int, dtype) -> _SharedBlock:
        """Smallest free ``(>= rows, cols)`` block of ``dtype``, or a new
        one — which supersedes (unlinks) the free blocks too small to
        serve, so the free list stays bounded by groups in flight."""
        dtype = np.dtype(dtype)
        same = [
            b for b in self._free
            if b.array.shape[1] == cols and b.array.dtype == dtype
        ]
        fits = [b for b in same if b.array.shape[0] >= rows]
        if fits:
            block = min(fits, key=lambda b: b.array.shape[0])
            self._free.remove(block)
            return block
        for block in same:
            block.close()
            self._free.remove(block)
            self._owned.remove(block)
        block = _SharedBlock((rows, cols), dtype)
        self._owned.append(block)
        return block

    def _release(self, blocks) -> None:
        for block in blocks:
            if block.array is not None:  # not closed by close() meanwhile
                self._free.append(block)

    def reserve(self, width: int) -> None:
        width = max(int(width), self._num_workers)
        if self._pool is not None and width > self._num_workers:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._num_workers = width

    def submit_group(
        self, trainer, active, plans, rows, uploads, attacks=None
    ) -> LegGroup:
        from repro.core.pool import _check_integer_roundtrip

        n = min(len(active), len(plans))
        _check_parallel_cohort(active[:n], rows[:n])
        # Validate every hook *before* submitting anything: a bad hook
        # on plan n must not leave legs 0..n-1 training (and writing
        # shared rows) behind a raised error.
        for plan in plans[:n]:
            _require_spec_hook(plan.loss_hook, "DispatchPlan.loss_hook")
            _require_spec_hook(plan.grad_hook, "DispatchPlan.grad_hook")
        if n == 0:
            return LegGroup([])
        self._ensure_pool()
        layout = uploads.layout
        dispatch = self._acquire(n, layout.total_size, uploads.dtype)
        upload = self._acquire(n, layout.total_size, uploads.dtype)
        packer = _PayloadPacker(self._acquire, self._payload_versions)

        def release() -> None:
            self._release([dispatch, upload, *packer.blocks])

        futures: list[Future] = []
        try:
            # Round-shared hook payloads (SCAFFOLD's c_global, FedGen's
            # generator state) are packed once and replaced by tiny
            # refs — never pickled per client.
            hook_pairs = packer.pack_round(plans[:n])
            # Pack each *unique* dispatched state once (FedAvg-family
            # plans all share one global-state dict; FedCross plans are
            # distinct pool rows), keyed by object identity.
            dispatch_rows: dict[int, int] = {}
            for plan in plans[:n]:
                key = id(plan.state)
                if key in dispatch_rows:
                    continue
                if set(plan.state) != set(layout.keys):
                    raise KeyError(
                        "dispatched state keys do not match the model layout; "
                        "the process backend can only ship model-shaped states"
                    )
                j = dispatch_rows[key] = len(dispatch_rows)
                _check_integer_roundtrip(layout, plan.state, dispatch.array.dtype)
                _check_float_roundtrip(layout, plan.state, dispatch.array.dtype)
                layout.flatten_into(plan.state, dispatch.array[j])
            live_names = sorted(b.shm.name for b in self._owned)
            hypers = _trainer_hypers(trainer)
            for j, (client, plan) in enumerate(zip(active[:n], plans[:n])):
                loss_hook, grad_hook = hook_pairs[j]
                futures.append(
                    self._pool.submit(
                        _process_leg,
                        {
                            "client_id": client.client_id,
                            "rng_state": client.rng.bit_generator.state,
                            "dispatch_row": dispatch_rows[id(plan.state)],
                            "upload_row": j,
                            "dispatch_ref": dispatch.ref,
                            "upload_ref": upload.ref,
                            "live_names": live_names,
                            "loss_hook": loss_hook,
                            "grad_hook": grad_hook,
                            "lr_override": plan.lr_override,
                            "hypers": hypers,
                        },
                    )
                )
        except BaseException:
            # Nothing may still write into the blocks once they are
            # back on the free list.
            for future in futures:
                future.cancel()
            wait(futures)
            release()
            raise
        attack_map = dict(attacks) if attacks else {}

        def finalize(j: int, raw) -> LocalResult:
            num_samples, num_steps, mean_loss, rng_state = raw
            active[j].rng.bit_generator.state = rng_state
            row = int(rows[j])
            # Copy the leg's freshly written shm row into the server's
            # buffer the moment it lands — straight into the row's
            # owning shard on sharded (or memmap-backed) storage.
            uploads.set_row(row, upload.array[j])
            result = LocalResult(
                state=uploads.as_state(row, copy=True),
                num_samples=num_samples,
                num_steps=num_steps,
                mean_loss=mean_loss,
            )
            if j in attack_map:
                result = _attacked_result(attack_map[j], plans[j], row, uploads, result)
            return result

        return LegGroup(futures, finalize, release)

    def close(self) -> None:
        # Release the shared segments even when the pool shutdown is
        # interrupted (Ctrl-C while workers drain): pool teardown runs
        # first, but block unlinking sits in the finally so a
        # KeyboardInterrupt unwinding through shutdown() cannot leak
        # /dev/shm segments until reboot.
        pool, self._pool = self._pool, None
        try:
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            for block in self._owned:
                block.close()
            self._owned.clear()
            self._free.clear()


# -- facade -----------------------------------------------------------------
def _raise_failures(legs: Iterator) -> Iterator[tuple[int, LocalResult]]:
    """Uncaptured view of a landing loop: re-raise a failed leg's own
    exception — after the loop has cancelled unstarted legs and drained
    in-flight ones, so nothing writes into the upload buffer once the
    error reaches the caller."""
    with contextlib.closing(legs):
        for i, leg in legs:
            if isinstance(leg, LegFailure):
                raise leg.error
            yield i, leg


class ClientExecutor:
    """The server's handle on its execution backend.

    Resolves ``backend`` against the registry and builds it with a
    :class:`TrainerSpec` derived from the live trainer (plus an optional
    explicit ``model_factory`` — required to be picklable for
    ``process``).  Owns the one landing loop over the backend's
    :meth:`~ExecutionBackend.submit_group`, served three ways:
    :meth:`run_streaming_captured` (failures as data), :meth:`run_streaming`
    (failures raised) and :meth:`run` (results in plan order).  Servers
    construct one from ``FLConfig.execution`` / ``FLConfig.workers`` by
    default; callers may inject a custom instance through the server's
    ``executor=`` keyword.
    """

    def __init__(
        self,
        backend: str = "serial",
        *,
        trainer: LocalTrainer | None = None,
        clients: "Sequence[Client]" = (),
        model_factory: "Callable[[], Module] | None" = None,
        workers: int | None = None,
        array_backend: str | None = None,
        ledger=None,
    ) -> None:
        spec = (
            TrainerSpec.from_trainer(trainer, model_factory, array_backend=array_backend)
            if trainer is not None
            else None
        )
        self._backend = resolve_execution(backend)(
            spec=spec, clients=clients, workers=workers
        )
        if ledger is not None:
            self._backend.ledger = ledger
        self._finalizer = weakref.finalize(self, self._backend.close)

    @property
    def name(self) -> str:
        """Registered name of the active backend."""
        return self._backend.name

    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    def _legs(self, trainer, active, plans, rows, uploads, timeout=None, attacks=None):
        """Submit one group and land it; a raising ``submit_group`` is
        one ``error`` failure per leg."""
        try:
            group = self._backend.submit_group(
                trainer, active, plans, rows, uploads, attacks=attacks
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - captured
            for i in range(min(len(active), len(plans))):
                yield i, _leg_failure(active, rows, i, "error", exc)
            return
        yield from _land(group, active, rows, timeout)

    def run(
        self,
        trainer: LocalTrainer,
        active: "list[Client]",
        plans: "list[DispatchPlan]",
        rows: Sequence[int],
        uploads: "PoolBuffer",
    ) -> list[LocalResult]:
        """Train the cohort and pack uploads; results in plan order."""
        results: list[LocalResult | None] = [None] * min(len(active), len(plans))
        for i, result in self.run_streaming(trainer, active, plans, rows, uploads):
            results[i] = result
        return results

    def run_streaming(
        self,
        trainer: LocalTrainer,
        active: "list[Client]",
        plans: "list[DispatchPlan]",
        rows: Sequence[int],
        uploads: "PoolBuffer",
    ) -> Iterator[tuple[int, LocalResult]]:
        """Train the cohort, yielding ``(plan_index, result)`` pairs as
        legs land — the overlap seam the collect phase consumes.  A leg
        error is re-raised once in-flight legs have drained."""
        return _raise_failures(self._legs(trainer, active, plans, rows, uploads))

    def run_streaming_captured(
        self,
        trainer: LocalTrainer,
        active: "list[Client]",
        plans: "list[DispatchPlan]",
        rows: Sequence[int],
        uploads: "PoolBuffer",
        timeout: float | None = None,
        attacks: "Mapping[int, AttackSpec] | None" = None,
    ) -> "Iterator[tuple[int, LocalResult | LegFailure]]":
        """Fault-capturing stream — the seam the resilience engine
        drives: a leg that raises (or misses the wall-clock ``timeout``,
        see :func:`_land`) is yielded as a structured
        :class:`~repro.faults.policy.LegFailure` instead of aborting the
        stream.  ``attacks`` (plan index → Byzantine spec) poisons those
        legs' uploads at the landing boundary."""
        return self._legs(trainer, active, plans, rows, uploads, timeout, attacks)

    def close(self) -> None:
        """Shut down worker pools and release shared buffers (idempotent;
        the backend transparently re-creates them on the next run)."""
        self._backend.close()


# The socket-RPC backend lives in its own package and is imported only
# when actually selected (see Registry.lazy) — it still shows up in
# available_executions() and CLI validation.
EXECUTION_BACKENDS.lazy("distributed", "repro.distributed.execution")
