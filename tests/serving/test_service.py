"""JSONL service front end + ``ema-gnn`` export/serve subcommands."""

import json

import numpy as np
import pytest

from repro.serving import ForecastService, ModelStore, build_shards
from repro.serving.service import outcome_to_dict

from .test_store import V, L, make_artifact


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    artifacts = [make_artifact("tgcn", identifier=f"p{i}", seed=i)[0]
                 for i in range(3)]
    ModelStore(root).save_cohort(artifacts)
    return root


class TestForecastService:
    def test_run_serves_every_request(self, store_dir):
        service = ForecastService(store_dir)
        lines = [json.dumps({"id": f"r{i}", "individual": f"p{i}"})
                 for i in range(3)]
        results = service.run(lines)
        assert len(results) == 3
        assert all(result["ok"] for result in results)
        assert {result["individual"] for result in results} == \
            {"p0", "p1", "p2"}
        for result in results:
            assert len(result["prediction"]) == V

    def test_results_match_sync_forecast(self, store_dir):
        service = ForecastService(store_dir)
        results = {r["individual"]: r
                   for r in service.run([json.dumps({"individual": "p0"})])}
        expected = service.engine.forecast("p0")
        np.testing.assert_array_equal(
            np.asarray(results["p0"]["prediction"]), expected)

    def test_malformed_json_line_degrades(self, store_dir):
        service = ForecastService(store_dir)
        results = service.run(["{broken", json.dumps({"individual": "p1"}),
                               ""])
        assert len(results) == 2
        bad = [r for r in results if not r["ok"]]
        assert len(bad) == 1
        assert bad[0]["error_type"] == "JSONDecodeError"

    def test_non_object_request_degrades(self, store_dir):
        service = ForecastService(store_dir)
        results = service.run(["[1, 2, 3]"])
        assert results[0]["ok"] is False
        assert "JSON object" in results[0]["message"]

    def test_bad_timeouts_fail_alone(self, store_dir):
        """Each bad timeout becomes its own failure; the stream goes on."""
        service = ForecastService(store_dir)
        lines = [json.dumps({"id": "word", "individual": "p0",
                             "timeout": "soon"}),
                 json.dumps({"id": "list", "individual": "p1",
                             "timeout": [1]}),
                 '{"id": "nan", "individual": "p2", "timeout": NaN}',
                 json.dumps({"id": "good", "individual": "p0",
                             "timeout": 60.0})]
        results = {r["id"]: r for r in service.run(lines)}
        assert sorted(results) == ["good", "list", "nan", "word"]
        for bad in ("word", "list", "nan"):
            assert results[bad]["ok"] is False
            assert results[bad]["kind"] == "exception"
            assert "timeout" in results[bad]["message"]
        assert results["good"]["ok"] is True
        np.testing.assert_array_equal(
            np.asarray(results["good"]["prediction"]),
            service.engine.forecast("p0"))

    def test_unknown_individual_is_failure_object(self, store_dir):
        service = ForecastService(store_dir)
        results = service.run([json.dumps({"individual": "nobody"})])
        assert results[0]["ok"] is False
        assert results[0]["kind"] == "exception"

    def test_demo_requests_cover_every_individual(self, store_dir):
        service = ForecastService(store_dir)
        demo = service.demo_requests()
        assert sorted(r["individual"] for r in demo) == ["p0", "p1", "p2"]
        results = service.run(json.dumps(r) for r in demo)
        assert all(result["ok"] for result in results)

    def test_explicit_window_round_trips_through_json(self, store_dir):
        service = ForecastService(store_dir)
        rng = np.random.default_rng(5)
        window = rng.standard_normal((L, V))
        results = service.run([json.dumps({"individual": "p0",
                                           "window": window.tolist()})])
        expected = service.engine.forecast("p0", window)
        np.testing.assert_array_equal(
            np.asarray(results[0]["prediction"]), expected)

    def test_outcome_to_dict_is_json_ready(self, store_dir):
        service = ForecastService(store_dir)
        outcomes = service.engine.submit("p0") + service.engine.flush()
        for outcome in outcomes:
            json.dumps(outcome_to_dict(outcome))

    def test_in_memory_service_engine_parity(self, store_dir):
        # A service over the store and an engine over freshly built
        # in-memory shards of the same artifacts must serve identically.
        from repro.serving import InferenceEngine

        service = ForecastService(store_dir)
        artifacts = [make_artifact("tgcn", identifier=f"p{i}", seed=i)[0]
                     for i in range(3)]
        memory = InferenceEngine(build_shards(artifacts))
        for identifier in ("p0", "p1", "p2"):
            np.testing.assert_array_equal(
                service.engine.forecast(identifier),
                memory.forecast(identifier))


class TestCLI:
    def test_export_then_serve_demo(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        assert main(["export", "--store", str(store), "--model", "tgcn",
                     "--seq-len", "2", "--epochs", "1", "--profile", "tiny",
                     "--quiet"]) == 0
        exported = capsys.readouterr().out
        assert "exported" in exported
        assert main(["serve", "--store", str(store), "--demo"]) == 0
        out, err = capsys.readouterr()
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert lines and all(line["ok"] for line in lines)
        assert "served" in err

    def test_serve_requests_file(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        main(["export", "--store", str(store), "--model", "naive-mean",
              "--seq-len", "2", "--profile", "tiny", "--quiet"])
        capsys.readouterr()
        service = ForecastService(store)
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(
            json.dumps({"individual": identifier})
            for identifier in service.engine.individuals))
        out_file = tmp_path / "responses.jsonl"
        assert main(["serve", "--store", str(store), "--requests",
                     str(requests), "--out", str(out_file)]) == 0
        results = [json.loads(line)
                   for line in out_file.read_text().splitlines()]
        assert results and all(result["ok"] for result in results)

    def test_serve_missing_store_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["serve", "--store", str(tmp_path / "nope"),
                     "--demo"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_without_input_source_errors(self, store_dir, capsys):
        from repro.cli import main

        assert main(["serve", "--store", str(store_dir)]) == 2
        assert "--requests" in capsys.readouterr().err
