"""Tests for the CLI (fast commands, plus full table runs at a micro
profile patched over ``tiny`` so they execute in seconds)."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.experiments import PROFILES, ExperimentConfig
from repro.models import ModelConfig

#: Shrunk stand-in for the tiny profile: full pipeline, seconds of compute.
MICRO_PROFILE = ExperimentConfig(
    raw_individuals=8, max_individuals=2, epochs=2, seed=9,
    seq_lens=(1,), gdts=(0.4,), graph_methods=("correlation",),
    num_random_repeats=2,
    model=ModelConfig(hidden_size=8, mtgnn_layers=1, mtgnn_embedding_dim=4),
)


@pytest.fixture
def micro_tiny(monkeypatch):
    """Swap the ``tiny`` profile for the micro one for CLI-level runs."""
    monkeypatch.setitem(PROFILES, "tiny", MICRO_PROFILE)


def _parse_config(argv):
    from repro.cli import _config

    return _config(build_parser().parse_args(argv))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_choices(self):
        args = build_parser().parse_args(["table2", "--profile", "paper"])
        assert args.profile == "paper"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--profile", "huge"])

    def test_seed_override(self):
        args = build_parser().parse_args(["fig3", "--seed", "123"])
        assert args.seed == 123

    def test_out_only_for_tables(self):
        args = build_parser().parse_args(["table2", "--out", "/tmp/x"])
        assert args.out == "/tmp/x"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--out", "/tmp/x"])

    def test_jobs_flag_on_experiment_commands(self):
        for command in ("table2", "table3", "fig3"):
            args = build_parser().parse_args([command, "--jobs", "4"])
            assert args.jobs == 4
            assert build_parser().parse_args([command]).jobs == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cohort", "--jobs", "2"])

    def test_checkpoint_flag(self):
        args = build_parser().parse_args(["table3", "--checkpoint", "/tmp/c"])
        assert args.checkpoint == "/tmp/c"

    def test_engine_flags_on_experiment_commands(self):
        for command in ("table2", "table3", "fig3"):
            args = build_parser().parse_args(
                [command, "--early-stop", "15", "--lr-schedule", "plateau"])
            assert args.early_stop == 15
            assert args.lr_schedule == "plateau"
            defaults = build_parser().parse_args([command])
            assert defaults.early_stop is None  # off: paper-faithful
            assert defaults.lr_schedule is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cohort", "--early-stop", "5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--lr-schedule", "cosine"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--early-stop", "0"])

    def test_engine_flags_reach_trainer_config(self):
        from repro.cli import _config

        args = build_parser().parse_args(
            ["table2", "--early-stop", "9", "--lr-schedule", "step"])
        config = _config(args)
        assert config.early_stop_patience == 9
        assert config.lr_schedule == "step"
        specs = config.trainer_config().callbacks
        assert [s.name for s in specs] == ["early-stopping", "lr-scheduler"]
        assert specs[0].kwargs == {"patience": 9}

    def test_engine_flags_off_by_default(self):
        config = _parse_config(["table2"])
        assert config.trainer_config().callbacks == ()

    def test_sanitize_flag_on_experiment_commands(self):
        for command in ("table2", "table3", "fig3"):
            assert build_parser().parse_args([command, "--sanitize"]).sanitize
            assert not build_parser().parse_args([command]).sanitize
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cohort", "--sanitize"])

    def test_sanitize_reaches_trainer_config(self):
        config = _parse_config(["table2", "--sanitize"])
        assert config.sanitize
        specs = config.trainer_config().callbacks
        assert [s.name for s in specs] == ["sanitizer"]
        assert not _parse_config(["table2"]).sanitize

    def test_bad_arguments_exit_code_2(self):
        for argv in ([], ["table2", "--profile", "huge"],
                     ["no-such-command"], ["table2", "--jobs", "lots"],
                     ["table2", "--jobs", "0"], ["fig3", "--jobs", "-2"],
                     ["table2", "--retries", "-1"],
                     ["table2", "--cell-timeout", "0"],
                     ["table3", "--on-error", "explode"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_positive_float_flags_reject_non_finite(self, value):
        from repro.cli import _positive_float

        with pytest.raises(argparse.ArgumentTypeError):
            _positive_float(value)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--cell-timeout", value])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--store", "s",
                                       "--timeout", value])

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_max_linger_rejects_negative_and_non_finite(self, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--store", "s",
                                       "--max-linger", value])

    def test_max_linger_accepts_zero(self):
        args = build_parser().parse_args(["serve", "--store", "s",
                                          "--max-linger", "0"])
        assert args.max_linger == 0.0

    def test_fault_flags_on_experiment_commands(self):
        for command in ("table2", "table3", "fig3"):
            args = build_parser().parse_args(
                [command, "--retries", "2", "--cell-timeout", "900",
                 "--on-error", "collect", "--inject-faults", "exception:3"])
            assert args.retries == 2
            assert args.cell_timeout == 900.0
            assert args.on_error == "collect"
            assert args.inject_faults == "exception:3"
            defaults = build_parser().parse_args([command])
            assert defaults.retries == 0
            assert defaults.cell_timeout is None
            assert defaults.on_error == "raise"
            assert defaults.inject_faults is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cohort", "--retries", "1"])

    def test_fault_flags_reach_parallel_config(self):
        from repro.cli import _parallel

        args = build_parser().parse_args(
            ["table2", "--quiet", "--retries", "3", "--cell-timeout", "60",
             "--on-error", "skip", "--inject-faults", "hang:4:1"])
        config = _parallel(args)
        assert config.retries == 3
        assert config.timeout == 60.0
        assert config.on_error == "skip"
        assert config.fault_injector.kind == "hang"
        assert config.fault_injector.every == 4
        assert config.fault_injector.times == 1

    def test_inject_faults_spec_parsing(self):
        from repro.cli import _injector

        assert _injector(None) is None
        injector = _injector("exception")
        assert injector.kind == "exception"
        assert injector.every == 2 and injector.times is None
        assert _injector("nan:5:2").times == 2
        for spec in ("segfault", "exception:zero", "exception:2:1:9"):
            with pytest.raises(SystemExit):
                _injector(spec)


class TestCommands:
    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "A3TGCN" in out
        assert "GDT" in out

    def test_cohort_tiny(self, capsys):
        assert main(["cohort", "--profile", "tiny", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "individuals" in out
        assert "variables" in out

    def test_seed_override_reaches_config(self, capsys):
        assert main(["cohort", "--profile", "tiny", "--seed", "123",
                     "--quiet"]) == 0
        assert "seed=123" in capsys.readouterr().out

    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0

    def test_lint_findings_exit_one(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "training"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import numpy as np\nnp.random.seed(0)\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "REPRO001" in capsys.readouterr().out


class TestTableRuns:
    """Full table pipelines through main() at the micro profile."""

    def test_table2_out_exports(self, micro_tiny, tmp_path, capsys):
        out_dir = tmp_path / "exports"
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--out", str(out_dir)]) == 0
        for name in ("table2.csv", "table2.md", "table2_per_individual.csv"):
            assert (out_dir / name).exists(), name
        stdout = capsys.readouterr().out
        assert "Table II" in stdout
        assert "wrote" in stdout

    def test_table3_out_exports(self, micro_tiny, tmp_path):
        out_dir = tmp_path / "exports"
        assert main(["table3", "--profile", "tiny", "--quiet",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "table3.csv").exists()
        assert (out_dir / "table3_per_individual.csv").exists()

    def test_jobs_serial_parallel_equivalence(self, micro_tiny, tmp_path,
                                              capsys):
        """Acceptance: --jobs 2 writes byte-identical results to --jobs 1."""
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--jobs", "1", "--out", str(serial_dir)]) == 0
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--jobs", "2", "--out", str(parallel_dir)]) == 0
        capsys.readouterr()
        for name in ("table2.csv", "table2_per_individual.csv"):
            assert (serial_dir / name).read_bytes() == \
                (parallel_dir / name).read_bytes(), name

    def test_checkpoint_resume(self, micro_tiny, tmp_path, capsys):
        checkpoint = tmp_path / "cells.pkl"
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--checkpoint", str(checkpoint)]) == 0
        first = capsys.readouterr().out
        assert checkpoint.exists()
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--checkpoint", str(checkpoint)]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_progress_lines_report_cells(self, micro_tiny, capsys):
        assert main(["table2", "--profile", "tiny"]) == 0
        err = capsys.readouterr().err
        assert "cell " in err
        assert "Seq1" in err

    def test_engine_flags_run_end_to_end(self, micro_tiny, tmp_path, capsys):
        """--early-stop/--lr-schedule thread through runner and workers."""
        plain_dir, engine_dir = tmp_path / "plain", tmp_path / "engine"
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--out", str(plain_dir)]) == 0
        assert main(["table2", "--profile", "tiny", "--quiet", "--jobs", "2",
                     "--early-stop", "1", "--lr-schedule", "plateau",
                     "--out", str(engine_dir)]) == 0
        capsys.readouterr()
        assert (engine_dir / "table2.csv").exists()
        # Patience-1 early stopping on a 2-epoch micro profile can change
        # results but must never crash or alter the no-flags baseline.
        assert (plain_dir / "table2.csv").exists()

    def test_collect_mode_survives_injected_faults(self, micro_tiny, capsys):
        """Acceptance: injected failures degrade the run, not abort it."""
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--inject-faults", "exception:2",
                     "--on-error", "collect"]) == 0
        captured = capsys.readouterr()
        # The degraded aggregates flag their excluded individuals...
        assert "failed]" in captured.out
        # ...and the failure summary lists the cells on stderr.
        assert "cell(s) failed" in captured.err
        assert "InjectedFault" in captured.err

    def test_raise_mode_aborts_on_injected_fault(self, micro_tiny, capsys):
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--inject-faults", "exception:2"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "InjectedFault" in captured.err

    def test_sanitize_runs_end_to_end(self, micro_tiny, tmp_path, capsys):
        """--sanitize threads through the runner and changes no numbers."""
        plain_dir, sane_dir = tmp_path / "plain", tmp_path / "sane"
        assert main(["table2", "--profile", "tiny", "--quiet",
                     "--out", str(plain_dir)]) == 0
        assert main(["table2", "--profile", "tiny", "--quiet", "--sanitize",
                     "--out", str(sane_dir)]) == 0
        capsys.readouterr()
        plain = (plain_dir / "table2.csv").read_text()
        assert (sane_dir / "table2.csv").read_text() == plain
