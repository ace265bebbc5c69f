"""Tests for the event-driven training engine and its callbacks."""

import pickle

import numpy as np
import pytest

from repro.autodiff import Tensor, get_default_dtype, mse
from repro.data import PreprocessingPipeline, SynthesisConfig, generate_cohort
from repro.data.windows import make_windows
from repro.models import ModelConfig, create_model
from repro.optim import Adam, clip_grad_norm
from repro.training import (Callback, CallbackSpec, DivergenceGuard,
                            EarlyStopping, EpochTimer, ExecutionPolicy,
                            ParallelConfig, Trainer, TrainerConfig,
                            TrainingContext, TrainingHistory,
                            enumerate_cells, run_cells)

V, L = 6, 2


def learnable_series(t=100, seed=0):
    rng = np.random.default_rng(seed)
    x = np.zeros((t, V))
    state = rng.standard_normal(V)
    for i in range(t):
        state = 0.8 * state + 0.4 * rng.standard_normal(V)
        x[i] = state
    return (x - x.mean(0)) / x.std(0)


def seed_loop_losses(model, windows, config):
    """The seed repo's original 17-line fixed-epoch loop, verbatim."""
    dtype = get_default_dtype()
    inputs = Tensor(windows.inputs.astype(dtype))
    targets = windows.targets.astype(dtype)
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    losses = []
    model.train()
    for _ in range(config.epochs):
        optimizer.zero_grad()
        loss = mse(model(inputs), targets)
        loss.backward()
        if config.grad_clip is not None:
            clip_grad_norm(model.parameters(), config.grad_clip)
        optimizer.step()
        losses.append(loss.item())
    return losses


class TestSeedEquivalence:
    """Acceptance: no callbacks configured => bit-identical to the seed."""

    @pytest.mark.parametrize("model_name", ["lstm", "a3tgcn"])
    def test_bit_identical_losses(self, model_name):
        windows = make_windows(learnable_series(), L)
        config = TrainerConfig(epochs=12)
        graph = np.ones((V, V)) - np.eye(V)
        engine_model = create_model(model_name, V, L, adjacency=graph, seed=3)
        seed_model = create_model(model_name, V, L, adjacency=graph, seed=3)
        history = Trainer(config).fit(engine_model, windows)
        reference = seed_loop_losses(seed_model, windows, config)
        assert history.losses == reference  # bit-identical, not approx
        for a, b in zip(engine_model.parameters(), seed_model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_bit_identical_without_grad_clip(self):
        windows = make_windows(learnable_series(seed=1), L)
        config = TrainerConfig(epochs=8, grad_clip=None)
        history = Trainer(config).fit(create_model("lstm", V, L, seed=0),
                                      windows)
        reference = seed_loop_losses(create_model("lstm", V, L, seed=0),
                                     windows, config)
        assert history.losses == reference


class TestEngineLoop:
    def test_fit_restores_prior_mode(self):
        # Regression: fit() used to leave the model in train mode
        # unconditionally, mirroring the evaluate() bug fixed in PR 1.
        windows = make_windows(learnable_series(seed=2), L)
        model = create_model("lstm", V, L, seed=0)
        model.eval()
        Trainer(TrainerConfig(epochs=2)).fit(model, windows)
        assert model.training is False
        model.train()
        Trainer(TrainerConfig(epochs=2)).fit(model, windows)
        assert model.training is True

    def test_hook_order_and_counts(self):
        events = []

        class Recorder(Callback):
            def on_fit_start(self, ctx):
                events.append("fit_start")

            def on_epoch_start(self, ctx):
                events.append(f"epoch_start:{ctx.epoch}")

            def on_after_backward(self, ctx):
                events.append(f"after_backward:{ctx.epoch}")

            def on_epoch_end(self, ctx):
                events.append(f"epoch_end:{ctx.epoch}")

            def on_fit_end(self, ctx):
                events.append("fit_end")

        windows = make_windows(learnable_series(seed=3), L)
        Trainer(TrainerConfig(epochs=2)).fit(
            create_model("lstm", V, L, seed=0), windows,
            callbacks=[Recorder()])
        assert events == ["fit_start",
                          "epoch_start:0", "after_backward:0", "epoch_end:0",
                          "epoch_start:1", "after_backward:1", "epoch_end:1",
                          "fit_end"]

    def test_history_telemetry(self):
        windows = make_windows(learnable_series(seed=4), L)
        history = Trainer(TrainerConfig(epochs=3)).fit(
            create_model("lstm", V, L, seed=0), windows)
        assert history.epochs == 3
        assert all(r.lr == 0.01 for r in history.records)
        assert all(r.grad_norm is not None and r.grad_norm >= 0
                   for r in history.records)
        assert history.stop_reason is None and not history.stopped_early

    def test_no_grad_clip_means_no_grad_norm(self):
        windows = make_windows(learnable_series(seed=4), L)
        history = Trainer(TrainerConfig(epochs=2, grad_clip=None)).fit(
            create_model("lstm", V, L, seed=0), windows)
        assert all(r.grad_norm is None for r in history.records)


class TestCallbackSpec:
    def test_round_trips_kwargs(self):
        spec = CallbackSpec.make("early-stopping", patience=7, min_delta=0.1)
        assert spec.kwargs == {"patience": 7, "min_delta": 0.1}
        callback = spec.build()
        assert isinstance(callback, EarlyStopping)
        assert callback.patience == 7

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown callback"):
            CallbackSpec.make("does-not-exist")

    def test_pickles_inside_trainer_config(self):
        config = TrainerConfig(callbacks=(
            CallbackSpec.make("early-stopping", patience=5),
            CallbackSpec.make("lr-scheduler", kind="plateau"),
        ))
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert [s.name for s in clone.callbacks] == ["early-stopping",
                                                     "lr-scheduler"]

    def test_config_rejects_live_instances(self):
        with pytest.raises(TypeError, match="CallbackSpec"):
            TrainerConfig(callbacks=(EarlyStopping(),))

    def test_builds_fresh_instances_per_fit(self):
        spec = CallbackSpec.make("early-stopping", patience=2)
        assert spec.build() is not spec.build()


class TestEarlyStopping:
    def test_restores_best_weights(self):
        model = create_model("lstm", V, L, seed=0)
        stopper = EarlyStopping(patience=2)
        ctx = TrainingContext(model=model, optimizer=None,
                              config=TrainerConfig(), max_epochs=10,
                              history=TrainingHistory())
        ctx.epoch, ctx.loss = 0, 1.0
        stopper.on_epoch_end(ctx)
        best = model.state_dict()
        for p in model.parameters():  # training drifts past the optimum
            p.data += 1.0
        for epoch, loss in [(1, 2.0), (2, 3.0)]:
            ctx.epoch, ctx.loss = epoch, loss
            stopper.on_epoch_end(ctx)
        assert ctx.stop_requested and "early stop" in ctx.stop_reason
        stopper.on_fit_end(ctx)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, best[name])

    def test_stops_training_early(self):
        windows = make_windows(learnable_series(seed=5), L)
        config = TrainerConfig(epochs=500, callbacks=(
            CallbackSpec.make("early-stopping", patience=3),))
        history = Trainer(config).fit(create_model("lstm", V, L, seed=0),
                                      windows)
        assert history.epochs < 500
        assert history.stopped_early
        assert "early stop" in history.stop_reason

    def test_full_run_when_loss_keeps_improving(self):
        windows = make_windows(learnable_series(seed=6), L)
        config = TrainerConfig(epochs=10, callbacks=(
            CallbackSpec.make("early-stopping", patience=10),))
        history = Trainer(config).fit(create_model("lstm", V, L, seed=0),
                                      windows)
        assert history.epochs == 10
        assert not history.stopped_early


class TestDivergenceGuard:
    def test_halts_on_injected_nan(self):
        snapshots = {}

        class NaNInjector(Callback):
            def on_epoch_end(self, ctx):
                snapshots[ctx.epoch] = ctx.model.state_dict()
                if ctx.epoch == 3:
                    ctx.loss = float("nan")

        guard = DivergenceGuard()
        windows = make_windows(learnable_series(seed=7), L)
        model = create_model("lstm", V, L, seed=0)
        history = Trainer(TrainerConfig(epochs=50)).fit(
            model, windows, callbacks=[NaNInjector(), guard])
        assert guard.tripped
        assert history.epochs == 4  # epochs 0..3, then halt
        assert history.stopped_early and "divergence" in history.stop_reason
        # Weights rolled back to the best *finite* epoch (epoch 2: losses
        # decrease monotonically on this easy series).
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, snapshots[2][name])

    def test_untripped_on_finite_run(self):
        guard = DivergenceGuard()
        windows = make_windows(learnable_series(seed=8), L)
        Trainer(TrainerConfig(epochs=3)).fit(
            create_model("lstm", V, L, seed=0), windows, callbacks=[guard])
        assert not guard.tripped


class TestLRScheduler:
    def test_step_schedule_decays_recorded_lr(self):
        windows = make_windows(learnable_series(seed=9), L)
        config = TrainerConfig(epochs=6, callbacks=(
            CallbackSpec.make("lr-scheduler", kind="step", step_size=2,
                              gamma=0.5),))
        history = Trainer(config).fit(create_model("lstm", V, L, seed=0),
                                      windows)
        # The recorded lr is the one each epoch stepped with; StepLR
        # decays *after* epochs 2 and 4 (1-indexed).
        assert history.learning_rates == pytest.approx(
            [0.01, 0.01, 0.005, 0.005, 0.0025, 0.0025])

    def test_plateau_schedule_runs_and_never_raises_lr(self):
        windows = make_windows(learnable_series(seed=10), L)
        config = TrainerConfig(epochs=30, callbacks=(
            CallbackSpec.make("lr-scheduler", kind="plateau", patience=2),))
        history = Trainer(config).fit(create_model("lstm", V, L, seed=0),
                                      windows)
        lrs = history.learning_rates
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_invalid_kind_rejected_at_build(self):
        with pytest.raises(ValueError, match="kind"):
            CallbackSpec.make("lr-scheduler", kind="cosine").build()


class TestEpochTimer:
    def test_stamps_durations(self):
        timer = EpochTimer()
        windows = make_windows(learnable_series(seed=11), L)
        history = Trainer(TrainerConfig(epochs=3)).fit(
            create_model("lstm", V, L, seed=0), windows, callbacks=[timer])
        assert all(d is not None and d >= 0 for d in history.durations)
        assert timer.total_seconds == pytest.approx(
            sum(history.durations), rel=1e-6)

    def test_durations_absent_without_timer(self):
        windows = make_windows(learnable_series(seed=11), L)
        history = Trainer(TrainerConfig(epochs=2)).fit(
            create_model("lstm", V, L, seed=0), windows)
        assert history.durations == [None, None]


class TestWorkerRoundTrip:
    """Acceptance: callback specs survive pickling into worker processes,
    and serial vs parallel schedules stay bit-identical with callbacks on."""

    @pytest.fixture(scope="class")
    def mini_cohort(self):
        raw = generate_cohort(SynthesisConfig(num_individuals=8, num_days=14,
                                              beeps_per_day=4, seed=5))
        clean, _ = PreprocessingPipeline(min_compliance=0.5,
                                         max_individuals=2,
                                         min_time_points=25).run(raw)
        return clean

    def test_specs_round_trip_through_worker_processes(self, mini_cohort):
        config = TrainerConfig(epochs=40, callbacks=(
            CallbackSpec.make("early-stopping", patience=2),
            CallbackSpec.make("lr-scheduler", kind="plateau", patience=1),
            CallbackSpec.make("divergence-guard"),
        ))
        cells = enumerate_cells(
            mini_cohort, "a3tgcn", L, graph_method="correlation",
            keep_fraction=0.4, trainer_config=config,
            model_config=ModelConfig(hidden_size=8), base_seed=3)
        assert len(cells) == 2
        serial = run_cells(cells)
        parallel = run_cells(
            cells, ParallelConfig(execution=ExecutionPolicy(jobs=2)))
        assert [r.test_mse for r in serial] == \
            [r.test_mse for r in parallel]
        assert [r.history.losses for r in serial] == \
            [r.history.losses for r in parallel]
        # The callbacks actually fired in the workers: the budget was 40
        # epochs but patience-2 early stopping ends well short of it.
        for result in parallel:
            assert result.history.stopped_early
            assert result.history.epochs < 40
