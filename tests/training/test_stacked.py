"""Bit-exactness and routing tests for the stacked cohort backend.

Every comparison here is ``==`` on floats on purpose: the stacked
backend's contract is *bitwise* identity with the per-individual serial
path (see DESIGN.md), so any tolerance would hide a broken lane.
"""

import warnings

import numpy as np
import pytest

from repro.autodiff import set_default_dtype
from repro.data.containers import EMADataset, Individual
from repro.models import ModelConfig
from repro.optim.adam import _reference_step
from repro.training import (ExecutionPolicy, FaultPolicy, ParallelConfig,
                            TrainerConfig, run_cohort, stackable_reason)
from repro.training.callbacks import CallbackSpec
from repro.training.personalized import enumerate_cells

FAST_MODEL = ModelConfig(hidden_size=8, mtgnn_layers=1, mtgnn_embedding_dim=4)


def make_cohort(num_individuals=3, num_variables=5, time_points=50,
                seed=11, ragged=True, scale_one=None):
    rng = np.random.default_rng(seed)
    individuals = []
    for i in range(num_individuals):
        extra = 4 * i if ragged else 0
        values = rng.normal(size=(time_points + extra, num_variables))
        if scale_one is not None and i == scale_one:
            # Squared error on a 1e200-scale target overflows even float64,
            # so the divergence guard trips deterministically at epoch 1.
            values = values * 1e200
        individuals.append(Individual(
            identifier=f"p{i}", values=values,
            variable_names=tuple(f"v{j}" for j in range(num_variables))))
    return EMADataset(individuals)


def run_both(cohort, model, trainer_config, seq_len=2, stack_size=32,
             faults=None, **kw):
    results = []
    for backend in ("process", "stacked"):
        parallel = ParallelConfig(
            execution=ExecutionPolicy(backend=backend, stack_size=stack_size),
            faults=faults)
        results.append(run_cohort(cohort, model, seq_len,
                                  trainer_config=trainer_config,
                                  model_config=FAST_MODEL,
                                  parallel=parallel, **kw))
    return results


def assert_identical(serial, stacked):
    from repro.training.faults import CellFailure

    assert len(serial) == len(stacked)
    for a, b in zip(serial, stacked):
        assert a.identifier == b.identifier
        if isinstance(a, CellFailure) or isinstance(b, CellFailure):
            # on_error="collect" keeps failures in the result list; both
            # backends must fail the same cell the same way.
            assert type(a) is type(b)
            assert (a.key, a.kind) == (b.key, b.kind)
            continue
        assert a.test_mse == b.test_mse or (
            np.isnan(a.test_mse) and np.isnan(b.test_mse))
        assert a.train_mse == b.train_mse or (
            np.isnan(a.train_mse) and np.isnan(b.train_mse))
        assert a.repeat_scores == b.repeat_scores
        assert [e.loss for e in a.history.records] == \
            [e.loss for e in b.history.records]
        assert [e.grad_norm for e in a.history.records] == \
            [e.grad_norm for e in b.history.records]
        assert a.history.stop_reason == b.history.stop_reason


class TestBitIdentity:
    @pytest.mark.parametrize("model", ["lstm", "tgcn", "a3tgcn"])
    def test_matches_serial_bitwise(self, model):
        # Ragged lengths split the cohort into several stacks; dropout is
        # active at the model default, exercising per-lane RNG streams.
        cohort = make_cohort()
        serial, stacked = run_both(cohort, model, TrainerConfig(epochs=4))
        assert_identical(serial, stacked)

    @pytest.mark.parametrize("model", ["lstm", "tgcn", "a3tgcn"])
    def test_seq_len_one(self, model):
        # seq_len=1 leaves A3TGCN's attention parameter unused (grad None)
        # — the stacked optimizer must replay that pattern too.
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, model, TrainerConfig(epochs=4),
                                   seq_len=1)
        assert_identical(serial, stacked)

    def test_chunked_stacks(self):
        # stack_size smaller than the group forces multiple chunks.
        cohort = make_cohort(num_individuals=5, ragged=False)
        serial, stacked = run_both(cohort, "lstm", TrainerConfig(epochs=3),
                                   stack_size=2)
        assert_identical(serial, stacked)

    def test_float64(self):
        set_default_dtype("float64")
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, "a3tgcn", TrainerConfig(epochs=3))
        assert_identical(serial, stacked)

    def test_random_graph_repeats(self):
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, "a3tgcn", TrainerConfig(epochs=3),
                                   graph_method="random",
                                   num_random_repeats=3)
        assert_identical(serial, stacked)
        assert all(len(r.repeat_scores) == 3 for r in stacked)

    def test_high_lr_clip_path(self):
        # Regression: per-lane grad norms must reduce over each lane's
        # strided gradient slice, not a C-order flattening — solo leaf
        # grads keep the transpose-view layout, and a reshape-forced copy
        # changes the pairwise summation order (and thus the clip scale)
        # by a few ULPs once clipping actually triggers.
        cohort = make_cohort()
        config = TrainerConfig(epochs=5, learning_rate=5.0, grad_clip=1.0)
        for model in ("lstm", "a3tgcn"):
            serial, stacked = run_both(cohort, model, config)
            assert_identical(serial, stacked)

    def test_explicit_weight_decay(self):
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, "lstm",
                                   TrainerConfig(epochs=3,
                                                 weight_decay=0.01))
        assert_identical(serial, stacked)


class TestJitReplay:
    """``TrainerConfig.jit`` on the stacked backend: replay the whole
    lane-stack epoch (forward, masked loss, backward, clip, step) from a
    compiled plan, bit-identically — including in-place lane freezes."""

    def run_jit_pair(self, cohort, model, trainer_config, **kw):
        import dataclasses

        jitted_config = dataclasses.replace(trainer_config, jit=True)
        results = []
        for config in (trainer_config, jitted_config):
            parallel = ParallelConfig(
                execution=ExecutionPolicy(backend="stacked"))
            results.append(run_cohort(cohort, model, 2,
                                      trainer_config=config,
                                      model_config=FAST_MODEL,
                                      parallel=parallel, **kw))
        return results

    @pytest.mark.parametrize("model", ["lstm", "tgcn", "a3tgcn"])
    def test_replay_matches_eager_stack(self, model):
        # Dropout active at the model default: the plan refills each
        # lane's mask from its solo RNG stream every replayed epoch.
        cohort = make_cohort()
        eager, jitted = self.run_jit_pair(cohort, model,
                                          TrainerConfig(epochs=5))
        assert_identical(eager, jitted)

    def test_replay_with_grad_clip(self):
        cohort = make_cohort()
        config = TrainerConfig(epochs=5, learning_rate=5.0, grad_clip=1.0)
        for model in ("lstm", "a3tgcn"):
            eager, jitted = self.run_jit_pair(cohort, model, config)
            assert_identical(eager, jitted)

    def test_replay_tracks_lane_freezes(self):
        # Lanes stop at different epochs; the refreshed in-place ``where``
        # condition must mask them out of replayed epochs without a
        # retrace, and each lane must finish bitwise-equal to eager.
        cohort = make_cohort(num_individuals=4)
        config = TrainerConfig(
            epochs=25,
            callbacks=(CallbackSpec.make("early-stopping", patience=2,
                                         min_delta=1e-3),))
        eager, jitted = self.run_jit_pair(cohort, "lstm", config)
        assert_identical(eager, jitted)
        assert any(r.history.stop_reason for r in jitted)
        assert len({r.history.epochs for r in jitted}) > 1

    def test_jit_matches_serial_process_backend(self):
        # Transitivity check straight to ground truth: stacked+jit vs the
        # per-individual serial path.
        cohort = make_cohort(ragged=False)
        config = TrainerConfig(epochs=4, jit=True)
        serial = run_cohort(cohort, "lstm", 2, trainer_config=config,
                            model_config=FAST_MODEL,
                            parallel=ParallelConfig())
        stacked = run_cohort(cohort, "lstm", 2, trainer_config=config,
                             model_config=FAST_MODEL,
                             parallel=ParallelConfig(
                                 execution=ExecutionPolicy(backend="stacked")))
        assert_identical(serial, stacked)

    def test_huber_stack_falls_back_bitwise(self):
        # Data-dependent where condition: the stack JIT must disable
        # itself and the eager stack must carry the epoch unchanged.
        cohort = make_cohort(ragged=False)
        eager, jitted = self.run_jit_pair(
            cohort, "lstm", TrainerConfig(epochs=4, loss="huber"))
        assert_identical(eager, jitted)


class TestLaneMasks:
    def test_early_stopped_lane_bitwise(self):
        # Lanes stop at different epochs; each must end with weights (and
        # stop reason) bit-identical to its solo fit, while later lanes
        # keep training with the stopped lane frozen.
        cohort = make_cohort(num_individuals=4)
        config = TrainerConfig(
            epochs=25,
            callbacks=(CallbackSpec.make("early-stopping", patience=2,
                                         min_delta=1e-3),))
        serial, stacked = run_both(cohort, "lstm", config)
        assert_identical(serial, stacked)
        assert any(r.history.stop_reason for r in stacked)
        epochs = {r.history.epochs for r in stacked}
        assert len(epochs) > 1, "expected lanes to stop at distinct epochs"

    def test_nan_lane_does_not_contaminate_siblings(self):
        # One individual's series overflows float64 on the first squared
        # error; its divergence-guard lane trips at epoch 1 and freezes,
        # the non-finite-scoring cell is handed back to the solo
        # scheduler (which fails it the same way serial does), and every
        # sibling must stay bit-identical to its solo fit.
        from repro.training.faults import CellFailure

        cohort = make_cohort(num_individuals=4, ragged=False, scale_one=1)
        config = TrainerConfig(
            epochs=8, learning_rate=5.0,
            callbacks=(CallbackSpec.make("divergence-guard"),))
        serial, stacked = run_both(cohort, "lstm", config,
                                   faults=FaultPolicy(on_error="collect"))
        assert_identical(serial, stacked)
        assert isinstance(stacked[1], CellFailure)
        assert stacked[1].kind == "divergence"
        assert sum(isinstance(r, CellFailure) for r in stacked) == 1

    def test_nan_lane_without_callbacks_reruns_solo(self):
        # With no callback specs there is no solo-faithful NaN semantics
        # to replay mid-stack; the lane is frozen and the cell re-runs on
        # the canonical per-individual path (with its retry machinery).
        from repro.training.faults import CellFailure

        cohort = make_cohort(num_individuals=3, ragged=False, scale_one=1)
        config = TrainerConfig(epochs=8, learning_rate=5.0)
        serial, stacked = run_both(cohort, "lstm", config,
                                   faults=FaultPolicy(on_error="collect",
                                                      retries=1,
                                                      retry_backoff=0.0))
        assert_identical(serial, stacked)
        assert isinstance(stacked[1], CellFailure)
        assert stacked[1].kind == "divergence"
        assert stacked[1].attempts == 2  # retries=1 exhausted on the solo path


class TestRouting:
    def test_unstackable_model_falls_back(self):
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, "astgcn", TrainerConfig(epochs=2))
        assert_identical(serial, stacked)

    def test_stackable_reason(self):
        cells = enumerate_cells(make_cohort(), "lstm", 2,
                                trainer_config=TrainerConfig(epochs=2))
        assert stackable_reason(cells[0]) is None

        sgd = enumerate_cells(
            make_cohort(), "lstm", 2,
            trainer_config=TrainerConfig(epochs=2, optimizer="sgd"))
        assert "optimizer" in stackable_reason(sgd[0])

        astgcn = enumerate_cells(make_cohort(), "astgcn", 2,
                                 trainer_config=TrainerConfig(epochs=2))
        assert "no stacked forward" in stackable_reason(astgcn[0])

        timer = enumerate_cells(
            make_cohort(), "lstm", 2,
            trainer_config=TrainerConfig(
                epochs=2, callbacks=(CallbackSpec.make("epoch-timer"),)))
        assert "callback" in stackable_reason(timer[0])

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(execution=ExecutionPolicy(backend="gpu"))
        with pytest.raises(ValueError):
            ParallelConfig(execution=ExecutionPolicy(backend="stacked",
                                                     stack_size=0))

    def test_stack_failure_falls_back_to_solo(self, monkeypatch):
        # A crash inside the stacked executor must not fail the run: the
        # touched cells return to the per-individual scheduler.
        import repro.training.stacked as stacked_mod

        def boom(lanes, resolved):
            raise RuntimeError("stack exploded")

        monkeypatch.setattr(stacked_mod, "_execute_stack", boom)
        cohort = make_cohort(ragged=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_cohort(
                cohort, "lstm", 2, trainer_config=TrainerConfig(epochs=2),
                model_config=FAST_MODEL,
                parallel=ParallelConfig(
                    execution=ExecutionPolicy(backend="stacked")))
        serial = run_cohort(cohort, "lstm", 2,
                            trainer_config=TrainerConfig(epochs=2),
                            model_config=FAST_MODEL,
                            parallel=ParallelConfig())
        assert_identical(serial, results)


class TestStackedAdam:
    def _clone_params(self, rng, lanes, shapes, dtype):
        from repro.nn.module import Parameter

        solo = [[Parameter(rng.normal(size=shape).astype(dtype))
                 for shape in shapes] for _ in range(lanes)]
        stacked = [Parameter(np.stack([solo[k][i].data
                                       for k in range(lanes)]))
                   for i in range(len(shapes))]
        return solo, stacked

    def _set_grads(self, rng, solo, stacked, dtype):
        for i, param in enumerate(stacked):
            grads = [rng.normal(size=solo[0][i].data.shape).astype(dtype)
                     for _ in solo]
            for lane, g in enumerate(grads):
                solo[lane][i].grad = g
            param.grad = np.stack(grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_full_step_matches_solo_adams(self, dtype):
        from repro.optim import Adam, StackedAdam

        set_default_dtype(np.dtype(dtype).name)
        rng = np.random.default_rng(0)
        lanes, shapes = 3, [(4, 5), (5,), (2, 4, 3)]
        solo, stacked = self._clone_params(rng, lanes, shapes, dtype)
        solo_opts = [Adam(params, lr=0.05, weight_decay=0.01)
                     for params in solo]
        opt = StackedAdam(stacked, lr=0.05, weight_decay=0.01)
        for _ in range(5):
            self._set_grads(rng, solo, stacked, dtype)
            for solo_opt in solo_opts:
                _reference_step(solo_opt)
            opt.step()
        for i, param in enumerate(stacked):
            for lane in range(lanes):
                np.testing.assert_array_equal(param.data[lane],
                                              solo[lane][i].data)

    def test_masked_step_freezes_lanes(self):
        from repro.optim import Adam, StackedAdam

        set_default_dtype("float32")
        rng = np.random.default_rng(1)
        lanes, shapes = 4, [(3, 3), (3,)]
        solo, stacked = self._clone_params(rng, lanes, shapes, np.float32)
        solo_opts = [Adam(params, lr=0.1) for params in solo]
        opt = StackedAdam(stacked, lr=0.1)
        active = np.array([True, False, True, False])
        for step in range(4):
            self._set_grads(rng, solo, stacked, np.float32)
            for lane, solo_opt in enumerate(solo_opts):
                if active[lane]:
                    _reference_step(solo_opt)
            opt.step(active=active)
        for i, param in enumerate(stacked):
            for lane in range(lanes):
                np.testing.assert_array_equal(param.data[lane],
                                              solo[lane][i].data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    def test_steps_match_reference_oracle(self, dtype, weight_decay, masked):
        """Every lane equals a reference-looped solo Adam at every step,
        across gradless parameters, a change in which parameters carry
        gradients, and (masked) lanes frozen mid-run with NaN gradients."""
        from repro.optim import Adam, StackedAdam

        set_default_dtype(np.dtype(dtype).name)
        rng = np.random.default_rng(3)
        lanes, shapes = 4, [(3, 4), (4,), (2, 2, 3)]
        solo, stacked = self._clone_params(rng, lanes, shapes, dtype)
        solo_opts = [Adam(params, lr=0.05, weight_decay=weight_decay)
                     for params in solo]
        opt = StackedAdam(stacked, lr=0.05, weight_decay=weight_decay)
        active = np.ones(lanes, dtype=bool)
        for step in range(6):
            self._set_grads(rng, solo, stacked, dtype)
            gradless = 1 if step < 3 else 2
            for params in solo + [stacked]:
                params[gradless].grad = None
            if masked and step == 2:
                active[[1, 3]] = False
            for param in stacked:
                if param.grad is not None:
                    param.grad[~active] = np.nan  # frozen: never read
            for lane, solo_opt in enumerate(solo_opts):
                if active[lane]:
                    _reference_step(solo_opt)
            opt.step(active=active if masked else None)
            for i, param in enumerate(stacked):
                for lane in range(lanes):
                    np.testing.assert_array_equal(param.data[lane],
                                                  solo[lane][i].data)
                    np.testing.assert_array_equal(opt._m[i][lane],
                                                  solo_opts[lane]._m[i])
                    np.testing.assert_array_equal(opt._v[i][lane],
                                                  solo_opts[lane]._v[i])


class TestLaneOps:
    def test_lane_matmul_matches_per_lane_reference(self):
        # The batched fast path must replay the per-lane loop bitwise on
        # this host (the import-time probe's verdict, asserted end-to-end).
        from repro.autodiff import Tensor
        from repro.nn import lane_affine

        rng = np.random.default_rng(2)
        lanes, m, f_in, f_out = 4, 7, 5, 6
        x = rng.normal(size=(lanes, m, f_in)).astype(np.float32)
        w = rng.normal(size=(lanes, f_out, f_in)).astype(np.float32)
        b = rng.normal(size=(lanes, f_out)).astype(np.float32)

        xs = Tensor(x, requires_grad=True)
        ws = Tensor(w, requires_grad=True)
        bs = Tensor(b, requires_grad=True)
        out = lane_affine(xs, ws, bs)
        out.sum().backward()

        for k in range(lanes):
            xk = Tensor(x[k], requires_grad=True)
            wk = Tensor(w[k], requires_grad=True)
            bk = Tensor(b[k], requires_grad=True)
            ok = xk @ wk.T + bk
            ok.sum().backward()
            np.testing.assert_array_equal(out.data[k], ok.data)
            np.testing.assert_array_equal(xs.grad[k], xk.grad)
            np.testing.assert_array_equal(ws.grad[k], wk.grad)
            np.testing.assert_array_equal(bs.grad[k], bk.grad)
