"""Client-execution backends: registry, mechanics, hook specs."""

import pickle

import numpy as np
import pytest

from repro.fl.config import FLConfig
from repro.fl.execution import (
    ClientExecutor,
    ExecutionBackend,
    TrainerSpec,
    available_executions,
    register_execution,
    resolve_execution,
)
from repro.fl.hooks import ControlVariateSpec, HookSpec, ProximalSpec, resolve_hook
from repro.fl.server import DispatchPlan
from repro.fl.simulation import FLSimulation


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"serial", "thread", "process", "distributed"} <= set(
            available_executions()
        )

    def test_resolve_is_case_insensitive(self):
        assert resolve_execution("SERIAL").name == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown execution backend"):
            resolve_execution("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KeyError, match="already registered"):

            @register_execution("serial")
            class Dup(ExecutionBackend):
                pass

    def test_third_party_backend_selectable(self, tiny_config):
        calls = []

        @register_execution("probe-serial")
        class Probe(resolve_execution("serial")):
            def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
                calls.append(len(plans))
                return super().submit_group(
                    trainer, active, plans, rows, uploads, attacks=attacks
                )

        try:
            sim = FLSimulation(tiny_config.replace(execution="probe-serial"))
            sim.server.run_round(sim.server.select_cohort())
            assert calls == [tiny_config.clients_per_round]
        finally:
            from repro.fl.execution import EXECUTION_BACKENDS

            del EXECUTION_BACKENDS["probe-serial"]


class SubmitOnly(ExecutionBackend):
    """A third-party backend implementing nothing but ``submit_group``:
    eager in-process legs, each landed through a resolved future."""

    def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
        from concurrent.futures import Future

        from repro.fl.execution import LegGroup

        futures = []
        for i, (client, plan) in enumerate(zip(active, plans)):
            future = Future()
            try:
                result = client.train(
                    trainer,
                    plan.state,
                    loss_hook=resolve_hook(plan.loss_hook, plan.state),
                    grad_hook=resolve_hook(plan.grad_hook, plan.state),
                    lr_override=plan.lr_override,
                )
            except Exception as exc:
                future.set_exception(exc)
            else:
                uploads.set_state(rows[i], result.state)
                future.set_result(result)
            futures.append(future)
        return LegGroup(futures)


class TestSubmitGroupOnlyBackend:
    """``submit_group`` is the whole backend contract: a backend that
    defines nothing else serves every collect path — the sync phase
    driver, ``train_cohort`` (FedCluster's cluster visits), the
    resilience engine and the overlapped async driver — bitwise equal
    to ``serial``."""

    SCENARIOS = {
        "sync-collect": dict(method="fedcross"),
        "train-cohort": dict(method="fedcluster"),
        "carry-round": dict(
            method="fedcross",
            faults={"dropout": 0.3},
            failure_policy="carry",
            quorum=0.25,
        ),
        "async-s2": dict(method="fedcross", round_mode="async", max_staleness=2),
    }

    @pytest.fixture(autouse=True)
    def _registered(self):
        register_execution("probe-submit-only")(SubmitOnly)
        yield
        from repro.fl.execution import EXECUTION_BACKENDS

        del EXECUTION_BACKENDS["probe-submit-only"]

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_bitwise_equal_to_serial(self, tiny_config, scenario):
        overrides = dict(self.SCENARIOS[scenario])
        method = overrides.pop("method")
        config = tiny_config.replace(rounds=2, **overrides).with_method(method)

        def run(execution):
            sim = FLSimulation(config.replace(execution=execution))
            return sim.run()

        ref, got = run("serial"), run("probe-submit-only")
        assert len(got.history.records) == config.rounds
        if scenario == "carry-round":  # the engine really carried legs
            assert any(r.extras.get("leg_failures") for r in got.history.records)
        for a, b in zip(ref.history.records, got.history.records):
            assert (a.accuracy, a.loss, a.train_loss) == (
                b.accuracy, b.loss, b.train_loss
            ), scenario
            assert (a.comm_up_params, a.comm_down_params) == (
                b.comm_up_params, b.comm_down_params
            ), scenario
            assert a.extras.get("leg_failures") == b.extras.get("leg_failures")
        for key in ref.final_state:
            np.testing.assert_array_equal(
                ref.final_state[key], got.final_state[key], err_msg=scenario
            )


class TestOneSeam:
    """Every built-in backend implements the single ``submit_group``
    seam and nothing of the retired per-backend entry points."""

    @pytest.mark.parametrize("execution", ["serial", "thread", "process", "distributed"])
    def test_backend_exposes_only_submit_group(self, execution):
        cls = resolve_execution(execution)
        assert cls.submit_group is not ExecutionBackend.submit_group
        for retired in ("run", "run_streaming", "run_streaming_captured", "supports_async"):
            assert not hasattr(cls, retired), (execution, retired)


def _consume(executor, consumer, trainer, active, plans, rows, uploads):
    """Drive one ``ClientExecutor`` consumer; results in plan order."""
    out = getattr(executor, consumer)(trainer, active, plans, rows, uploads)
    if consumer == "run":
        return list(out)
    results = [None] * len(plans)
    for i, leg in out:
        assert results[i] is None, f"leg {i} landed twice"
        results[i] = leg
    return results


class TestExecutorConsumers:
    """``run``, ``run_streaming`` and ``run_streaming_captured`` are three
    views of one landing loop: on every in-process backend each lands
    the same upload bytes, results and client RNG streams as a serial
    ``run``."""

    @staticmethod
    def _round(config, execution, consumer):
        sim = FLSimulation(config.replace(execution=execution, workers=2))
        server = sim.server
        try:
            active = server.select_cohort()
            plans = server.dispatch(active)
            rows = list(range(len(plans)))
            uploads = server._round_uploads(len(active))
            results = _consume(
                server.executor, consumer, server.trainer, active, plans, rows, uploads
            )
        finally:
            server.executor.close()
        rngs = [client.rng.bit_generator.state for client in active]
        return uploads.matrix.copy(), results, rngs

    @pytest.mark.parametrize("consumer", ["run", "run_streaming", "run_streaming_captured"])
    @pytest.mark.parametrize("execution", ["serial", "thread", "process"])
    def test_consumer_bitwise_equal_to_serial_run(self, tiny_config, execution, consumer):
        ref_up, ref_results, ref_rngs = self._round(tiny_config, "serial", "run")
        got_up, got_results, got_rngs = self._round(tiny_config, execution, consumer)
        np.testing.assert_array_equal(ref_up, got_up)
        assert got_rngs == ref_rngs
        for a, b in zip(ref_results, got_results, strict=True):
            assert (a.num_samples, a.num_steps, a.mean_loss) == (
                b.num_samples, b.num_steps, b.mean_loss
            )
            for key in a.state:
                np.testing.assert_array_equal(a.state[key], b.state[key])


class _SubmitRaises(ExecutionBackend):
    def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
        raise ConnectionError("fleet unreachable")


class TestSubmitGroupFailure:
    """A ``submit_group`` that raises is one ``error`` failure per leg:
    captured as data by the fault-capturing consumer, re-raised as the
    backend's own exception by the uncaptured ones."""

    @pytest.fixture
    def executor(self):
        from repro.fl.execution import EXECUTION_BACKENDS

        register_execution("probe-submit-raises")(_SubmitRaises)
        try:
            yield ClientExecutor("probe-submit-raises")
        finally:
            del EXECUTION_BACKENDS["probe-submit-raises"]

    @staticmethod
    def _cohort():
        from types import SimpleNamespace

        active = [SimpleNamespace(client_id=10 + i) for i in range(3)]
        return active, [None] * 3, [4, 5, 6]

    def test_captured_yields_one_error_per_leg(self, executor):
        from repro.faults.policy import LegFailure

        active, plans, rows = self._cohort()
        legs = list(executor.run_streaming_captured(None, active, plans, rows, None))
        assert [i for i, _ in legs] == [0, 1, 2]
        for i, leg in legs:
            assert isinstance(leg, LegFailure)
            assert (leg.kind, leg.client_id, leg.row) == ("error", 10 + i, rows[i])
            assert isinstance(leg.error, ConnectionError)
            assert leg.retryable

    @pytest.mark.parametrize("consumer", ["run", "run_streaming"])
    def test_uncaptured_reraises_backend_exception(self, executor, consumer):
        active, plans, rows = self._cohort()
        with pytest.raises(ConnectionError, match="fleet unreachable"):
            _consume(executor, consumer, None, active, plans, rows, None)


class TestConfigWiring:
    def test_default_is_serial(self):
        assert FLConfig().execution == "serial"
        assert FLConfig().workers is None

    def test_invalid_execution_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            FLConfig(execution="")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            FLConfig(workers=0)

    def test_server_builds_executor_from_config(self, tiny_config):
        sim = FLSimulation(tiny_config.replace(execution="thread", workers=2))
        assert sim.server.executor.name == "thread"

    def test_workers_validated_at_backend_build(self, tiny_config):
        with pytest.raises(ValueError, match="workers"):
            ClientExecutor("thread", workers=-1)

    def test_injected_executor_records_into_server_ledger(self, tiny_config):
        """A measuring backend behind an injected executor records into
        the server's ledger — the server never charges analytically on
        top of it, so without the attachment its rounds would cost 0."""
        from repro.fl.execution import EXECUTION_BACKENDS
        from repro.fl.registry import build_server

        @register_execution("probe-measuring")
        class Measuring(resolve_execution("serial")):
            measures_comm = True

            def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
                self.ledger.record_down(len(plans))
                self.ledger.record_up(len(plans))
                return super().submit_group(
                    trainer, active, plans, rows, uploads, attacks=attacks
                )

        try:
            sim = FLSimulation(tiny_config)
            executor = ClientExecutor(
                "probe-measuring", trainer=sim.trainer, clients=sim.clients
            )
            server = build_server(
                tiny_config.method, tiny_config, sim.fed_dataset, sim.model,
                sim.trainer, sim.clients, np.random.default_rng(0),
                executor=executor,
            )
            assert executor.backend.ledger is server.ledger
            server.fit(rounds=1)
            k = tiny_config.clients_per_round
            record = server.history.records[0]
            assert (record.comm_up_params, record.comm_down_params) == (k, k)
        finally:
            del EXECUTION_BACKENDS["probe-measuring"]


class TestTrainerSpec:
    def test_from_trainer_mirrors_hyperparams(self, tiny_config):
        sim = FLSimulation(tiny_config)
        spec = TrainerSpec.from_trainer(sim.trainer, sim.model_factory)
        trainer = spec.build()
        assert trainer is not sim.trainer
        assert trainer.model is not sim.model
        assert trainer.local_epochs == sim.trainer.local_epochs
        assert trainer.batch_size == sim.trainer.batch_size
        assert trainer.lr == sim.trainer.lr

    def test_built_model_matches_template_weights(self, tiny_config):
        sim = FLSimulation(tiny_config)
        spec = TrainerSpec.from_trainer(sim.trainer, sim.model_factory)
        built = spec.build().model.state_dict()
        for key, value in sim.model.state_dict().items():
            np.testing.assert_array_equal(built[key], value)

    def test_spec_with_factory_is_picklable(self, tiny_config):
        sim = FLSimulation(tiny_config)
        spec = TrainerSpec.from_trainer(sim.trainer, sim.model_factory)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.build().model.num_parameters() == sim.model.num_parameters()

    def test_deepcopy_fallback_without_factory(self, tiny_config):
        sim = FLSimulation(tiny_config)
        spec = TrainerSpec.from_trainer(sim.trainer)
        built = spec.build()
        assert built.model is not sim.trainer.model
        for key, value in sim.model.state_dict().items():
            np.testing.assert_array_equal(built.model.state_dict()[key], value)


class TestHookSpecs:
    def test_raw_callables_pass_through_resolve(self):
        fn = lambda *a: None  # noqa: E731
        assert resolve_hook(fn, {}) is fn
        assert resolve_hook(None, {}) is None

    def test_proximal_spec_anchors_to_dispatched_state(self, tiny_config):
        from repro.tensor import functional as F  # noqa: F401 (import check)

        sim = FLSimulation(tiny_config.with_method("fedprox", mu=0.5))
        state = sim.server.global_state()
        hook = ProximalSpec(0.5).build(state)
        sim.model.load_state_dict(state)
        penalty = hook(sim.model, None, None)
        # Model equals the anchor, so the proximal penalty is exactly 0.
        assert float(penalty.item()) == 0.0

    def test_proximal_spec_mu_zero_is_inert(self, tiny_config):
        sim = FLSimulation(tiny_config)
        hook = ProximalSpec(0.0).build(sim.server.global_state())
        assert hook(sim.model, None, None) is None

    def test_specs_are_picklable(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        plans = sim.server.dispatch(sim.server.select_cohort())
        for plan in plans:
            clone = pickle.loads(pickle.dumps(plan.grad_hook))
            assert isinstance(clone, ControlVariateSpec)

    def test_fedgen_distillation_spec_survives_pickle(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedgen"))
        sim.server.round_idx = 1  # past warm-up
        plans = sim.server.dispatch(sim.server.select_cohort())
        spec = plans[0].loss_hook
        clone = pickle.loads(pickle.dumps(spec))
        hook = clone.build({})
        sim.model.eval()
        extra = hook(sim.model, None, None)
        assert np.isfinite(float(extra.item()))

    def test_process_backend_rejects_lossy_float64_states(self, tiny_config):
        """A float64 dispatch state that would be narrowed by the
        float32 shm row must fail loudly, not silently diverge."""
        import numpy as np

        sim = FLSimulation(tiny_config.replace(execution="process", workers=1))
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        lossy = {
            k: np.asarray(v, dtype=np.float64) + 1e-12
            for k, v in plans[0].state.items()
        }
        for plan in plans:
            plan.state = lossy
        with pytest.raises(ValueError, match="shared-memory round trip"):
            server.collect(active, plans)
        server.executor.close()

    def test_process_backend_rejects_raw_callable_hooks(self, tiny_config):
        sim = FLSimulation(tiny_config.replace(execution="process", workers=1))
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        plans[0].loss_hook = lambda model, logits, targets: None
        with pytest.raises(TypeError, match="HookSpec"):
            server.collect(active, plans)
        server.executor.close()


class TestSharedPayloadDedup:
    """Round-shared spec payloads ship through shm once, not per client."""

    def _scaffold_plans(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        server = sim.server
        active = server.select_cohort()
        return server, active, server.dispatch(active)

    def test_pack_round_dedups_shared_c_global(self, tiny_config):
        from repro.fl.execution import SharedStateRef, _PayloadPacker

        _, _, plans = self._scaffold_plans(tiny_config)
        packer = _PayloadPacker()
        try:
            pairs = packer.pack_round(plans)
            refs = [pair[1].c_global for pair in pairs]
            assert all(isinstance(ref, SharedStateRef) for ref in refs)
            # One shared payload -> every plan points at the same row of
            # the same segment.
            assert len({(ref.ref[0], ref.row) for ref in refs}) == 1
            # c_local is per-client and must still ride the spec.
            assert all(
                not isinstance(pair[1].c_local, SharedStateRef) for pair in pairs
            )
        finally:
            packer.close()

    def test_pack_round_leaves_originals_untouched(self, tiny_config):
        from repro.fl.execution import _PayloadPacker

        server, _, plans = self._scaffold_plans(tiny_config)
        packer = _PayloadPacker()
        try:
            packer.pack_round(plans)
            for plan in plans:
                assert plan.grad_hook.c_global is server._c_global
        finally:
            packer.close()

    def test_shared_payload_roundtrips_exactly(self, tiny_config):
        from repro.fl.execution import _PayloadPacker
        from repro.utils.layout import StateLayout

        _, _, plans = self._scaffold_plans(tiny_config)
        packer = _PayloadPacker()
        try:
            pairs = packer.pack_round(plans)
            ref = pairs[0][1].c_global
            layout = StateLayout.from_signature(ref.signature)
            block = packer._blocks[ref.signature]
            rebuilt = layout.unflatten(block.array[ref.row], copy=True)
            original = plans[0].grad_hook.c_global
            assert set(rebuilt) == set(original)
            for key in original:
                assert rebuilt[key].dtype == np.asarray(original[key]).dtype
                np.testing.assert_array_equal(rebuilt[key], original[key])
        finally:
            packer.close()

    def test_version_advances_per_round(self, tiny_config):
        from repro.fl.execution import _PayloadPacker

        _, _, plans = self._scaffold_plans(tiny_config)
        packer = _PayloadPacker()
        try:
            first = packer.pack_round(plans)[0][1].c_global
            second = packer.pack_round(plans)[0][1].c_global
            assert second.version == first.version + 1
        finally:
            packer.close()

    def test_hookless_plans_pack_nothing(self, tiny_config):
        from repro.fl.execution import _PayloadPacker

        sim = FLSimulation(tiny_config)  # fedavg: no hooks at all
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        packer = _PayloadPacker()
        try:
            pairs = packer.pack_round(plans)
            assert packer.live_names() == set()
            assert [p[0] for p in pairs] == [plan.loss_hook for plan in plans]
        finally:
            packer.close()

    def test_scaffold_process_round_matches_serial(self, tiny_config):
        """End to end through the worker-side cache: the deduped payload
        transport must not change a single bit."""

        def run(cfg):
            sim = FLSimulation(cfg.with_method("scaffold"))
            sim.server.run_round(sim.server.select_cohort())
            state = sim.server.global_state()
            c_global = dict(sim.server._c_global)
            sim.server.executor.close()
            return state, c_global

        ref_state, ref_c = run(tiny_config)
        got_state, got_c = run(tiny_config.replace(execution="process", workers=2))
        for key in ref_state:
            np.testing.assert_array_equal(ref_state[key], got_state[key])
        for key in ref_c:
            np.testing.assert_array_equal(ref_c[key], got_c[key])


class ExplodingSpec(HookSpec):
    """Module-level (hence picklable) hook spec that always raises."""

    def build(self, state):
        def hook(model, logits, targets):
            raise RuntimeError("boom")

        return hook


class TestParallelMechanics:
    def test_duplicate_rows_rejected_on_parallel_backends(self, tiny_config):
        sim = FLSimulation(tiny_config.replace(execution="thread", workers=2))
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        for plan in plans:
            plan.context["row"] = 0
        with pytest.raises(ValueError, match="unique upload-buffer rows"):
            server.collect(active, plans)
        server.executor.close()

    def test_duplicate_clients_rejected_on_parallel_backends(self, tiny_config):
        """A client appearing twice would train both legs from one RNG
        snapshot (serial advances the stream between legs) — an error,
        not a silent divergence."""
        sim = FLSimulation(tiny_config.replace(execution="process", workers=1))
        server = sim.server
        active = server.select_cohort()
        active[1] = active[0]
        plans = server.dispatch(active)
        with pytest.raises(ValueError, match="at most once"):
            server.collect(active, plans)
        server.executor.close()

    def test_thread_collect_packs_rows_like_serial(self, tiny_config):
        serial = FLSimulation(tiny_config)
        threaded = FLSimulation(tiny_config.replace(execution="thread", workers=2))
        for sim in (serial, threaded):
            server = sim.server
            active = server.select_cohort()
            server.collect(active, server.dispatch(active))
        np.testing.assert_array_equal(
            serial.server.uploads.matrix, threaded.server.uploads.matrix
        )
        threaded.server.executor.close()

    def test_executor_close_is_idempotent_and_reusable(self, tiny_config):
        sim = FLSimulation(tiny_config.replace(execution="thread", workers=2))
        server = sim.server
        server.run_round(server.select_cohort())
        server.executor.close()
        server.executor.close()
        # Backend re-creates its pool lazily on the next round.
        server.run_round(server.select_cohort())
        server.executor.close()

    def test_results_returned_in_plan_order(self, tiny_config):
        sim = FLSimulation(tiny_config.replace(execution="thread", workers=3))
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        results = server.collect(active, plans)
        assert [r.num_samples for r in results] == [len(c.dataset) for c in active]
        server.executor.close()

    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_live_trainer_mutations_honoured(self, tiny_config, execution):
        """The experiments' per-round LR-decay idiom (mutating
        ``sim.trainer.lr`` between rounds) must reach parallel workers,
        not be frozen at TrainerSpec construction."""
        import numpy as np

        def run(cfg):
            sim = FLSimulation(cfg)
            for lr in (0.05, 0.002):
                sim.trainer.lr = lr
                sim.server.run_round(sim.server.sample_clients())
                sim.server.round_idx += 1
            sim.server.executor.close()
            return sim.server.global_state()

        ref = run(tiny_config)
        got = run(tiny_config.replace(execution=execution, workers=2))
        for key in ref:
            np.testing.assert_array_equal(ref[key], got[key])

    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_failing_leg_drains_cleanly(self, tiny_config, execution):
        """A raising hook fails the round without stray legs corrupting
        the reused upload buffer; the next round runs normally."""
        sim = FLSimulation(tiny_config.replace(execution=execution, workers=2))
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        plans[0].loss_hook = ExplodingSpec()
        with pytest.raises(RuntimeError, match="boom"):
            server.collect(active, plans)
        # Backend stays usable and deterministic afterwards.
        extras = server.run_round(server.select_cohort())
        assert "train_loss" in extras
        server.executor.close()

    def test_serial_leg_error_raised_after_round_legs_train(self, tiny_config):
        """Fail-fast on ``serial``: the failed leg's own exception
        surfaces only after the round's remaining legs have trained and
        landed their rows, exactly as a clean round would have."""
        clean = FLSimulation(tiny_config).server
        active = clean.select_cohort()
        clean.collect(active, clean.dispatch(active))

        server = FLSimulation(tiny_config).server
        failing = server.select_cohort()
        plans = server.dispatch(failing)
        plans[0].loss_hook = ExplodingSpec()
        with pytest.raises(RuntimeError, match="boom"):
            server.collect(failing, plans)
        np.testing.assert_array_equal(
            server.uploads.matrix[1:], clean.uploads.matrix[1:]
        )
        assert [c.rng.bit_generator.state for c in failing[1:]] == [
            c.rng.bit_generator.state for c in active[1:]
        ]

    def test_train_cohort_reuses_size_keyed_buffers(self, tiny_config):
        sim = FLSimulation(tiny_config)
        server = sim.server
        members = server.clients[:2]
        plans = [DispatchPlan(server.global_state()) for _ in members]
        _, buf1 = server.train_cohort(members, plans)
        _, buf2 = server.train_cohort(members, plans)
        assert buf1 is buf2
        assert len(buf1) == 2


class TestSharedMemoryCleanup:
    """Interrupt-safety of the process backend's /dev/shm segments
    (ISSUE 7 satellite): a KeyboardInterrupt unwinding through pool
    shutdown, or an interpreter exiting mid-round, must still unlink
    every live segment instead of leaking it until reboot."""

    @staticmethod
    def _segment_gone(name: str) -> bool:
        from multiprocessing import shared_memory

        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return True
        seg.close()
        return False

    def test_close_unlinks_segments_when_shutdown_is_interrupted(self):
        from repro.fl.execution import ProcessExecution

        backend = ProcessExecution()
        in_flight = backend._acquire(2, 3, np.float32)
        released = backend._acquire(2, 3, np.float32)
        backend._release([released])
        names = [in_flight.shm.name, released.shm.name]

        class InterruptedPool:
            def shutdown(self, wait=True):
                raise KeyboardInterrupt

        backend._pool = InterruptedPool()
        with pytest.raises(KeyboardInterrupt):
            backend.close()
        assert backend._pool is None
        assert backend._owned == [] and backend._free == []
        for name in names:
            assert self._segment_gone(name), name
        backend.close()  # idempotent after the interrupted attempt

    def test_free_list_reuses_then_supersedes_blocks(self):
        """Groups recycle segments; a group needing more rows unlinks
        the free blocks too small to serve, so the list stays bounded."""
        from repro.fl.execution import ProcessExecution

        backend = ProcessExecution()
        try:
            small = backend._acquire(2, 3, np.float32)
            backend._release([small])
            assert backend._acquire(1, 3, np.float32) is small
            backend._release([small])
            big = backend._acquire(4, 3, np.float32)
            assert self._segment_gone(small.shm.name)
            assert backend._owned == [big] and backend._free == []
        finally:
            backend.close()

    def test_atexit_sweep_unlinks_live_blocks(self):
        from repro.fl.execution import (
            _LIVE_BLOCKS,
            _SharedBlock,
            _cleanup_shared_blocks,
        )

        block = _SharedBlock((2, 3), np.float32)
        assert block in _LIVE_BLOCKS
        name = block.shm.name
        _cleanup_shared_blocks()
        assert self._segment_gone(name)
        _cleanup_shared_blocks()  # sweep is idempotent

    def test_normal_close_remains_primary_release_path(self):
        from repro.fl.execution import _SharedBlock

        block = _SharedBlock((1, 4), np.float64)
        name = block.shm.name
        block.close()
        assert self._segment_gone(name)


class TestStreamDrain:
    """The landing loop's cancel-and-drain contract: when a leg errors
    (or the deadline passes), control must not leave the loop while any
    in-flight leg could still write into the reused upload buffer."""

    def test_stream_as_completed_drains_in_flight_on_error(self):
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor
        from types import SimpleNamespace

        from repro.fl.execution import LegGroup, _land, _raise_failures

        finished = threading.Event()

        def failing():
            raise RuntimeError("leg exploded")

        def slow():
            time.sleep(0.3)
            finished.set()
            return "late"

        def never():  # pragma: no cover - must stay queued and cancel
            raise AssertionError("cancelled leg ran")

        active = [SimpleNamespace(client_id=i) for i in range(3)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            slow_f = pool.submit(slow)
            fail_f = pool.submit(failing)
            never_f = pool.submit(never)  # queued behind the two above
            group = LegGroup([slow_f, fail_f, never_f])
            with pytest.raises(RuntimeError, match="leg exploded"):
                for _ in _raise_failures(_land(group, active, [0, 1, 2])):
                    pass
            # The error only propagated after the in-flight leg ran to
            # completion (drained) and the unstarted one was cancelled.
            assert finished.is_set()
            assert never_f.cancelled()

    def test_same_wakeup_lands_in_plan_order(self):
        from concurrent.futures import Future
        from types import SimpleNamespace

        from repro.fl.execution import LegGroup, _land

        futures = [Future() for _ in range(3)]
        for j in (2, 0, 1):
            futures[j].set_result(j)
        released = []
        group = LegGroup(futures, release=lambda: released.append(True))
        active = [SimpleNamespace(client_id=i) for i in range(3)]
        assert [i for i, _ in _land(group, active, [0, 1, 2])] == [0, 1, 2]
        assert released == [True]  # every leg accounted for exactly once
