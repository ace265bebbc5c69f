"""Model store: round-trip fidelity, content addressing, degradation."""

import json
import warnings

import numpy as np
import pytest

import repro.autodiff as ad
from repro.data.splits import split_windows
from repro.models import create_model
from repro.models.registry import MODEL_REGISTRY
from repro.serving import (CohortArtifact, ModelStore, StoreIntegrityError,
                           StoreVersionError, build_shards)
from repro.serving.store import _TEMPLATE_SPECS, _digest_arrays

V, L = 5, 3


def adjacency(seed=0, n=V):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


def make_artifact(model_name, dtype="float64", identifier="p0", seed=0):
    """A servable artifact for one registry model (no gradient training:
    the store round-trips whatever state exists; closed-form models are
    fitted because their state *is* the fit)."""
    ad.set_default_dtype(dtype)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((40, V))
    graph = adjacency(seed)
    spec = MODEL_REGISTRY[model_name]
    model = create_model(model_name, V, L,
                         adjacency=graph if spec.requires_graph else None,
                         seed=seed)
    if spec.family == "closed-form":
        model.fit_windows(split_windows(values, L, 0.7).train)
    return CohortArtifact(
        identifier=identifier, model_name=model_name, seq_len=L,
        num_variables=V, dtype=dtype, state=model.state_dict(),
        adjacency=graph if spec.requires_graph else None,
        graph_method="correlation", gdt=0.2, seed=seed,
        norm_mean=values.mean(axis=0), norm_std=values.std(axis=0),
        window_tail=values[-L:].astype(np.dtype(dtype)),
        config_digest="digest-abc"), model


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
class TestRoundTrip:
    def test_forecast_bitwise_equal_after_round_trip(self, tmp_path,
                                                     model_name, dtype):
        artifact, model = make_artifact(model_name, dtype)
        window = np.asarray(artifact.window_tail)
        reference = model.predict(window[None])[0]
        store = ModelStore(tmp_path)
        version = store.save_cohort([artifact])
        shard = store.load_shard(version)
        ad.set_default_dtype(dtype)
        rebuilt = shard.materialize("p0")
        np.testing.assert_array_equal(rebuilt.predict(window[None])[0],
                                      reference)

    def test_state_arrays_survive_bitwise(self, tmp_path, model_name, dtype):
        artifact, _ = make_artifact(model_name, dtype)
        store = ModelStore(tmp_path)
        version = store.save_cohort([artifact])
        loaded = store.load_shard(version).artifacts["p0"]
        assert sorted(loaded.state) == sorted(artifact.state)
        for name, value in artifact.state.items():
            assert loaded.state[name].dtype == np.asarray(value).dtype
            np.testing.assert_array_equal(loaded.state[name], value)
        np.testing.assert_array_equal(loaded.window_tail,
                                      artifact.window_tail)
        assert loaded.graph_method == "correlation"
        assert loaded.gdt == pytest.approx(0.2)
        assert loaded.config_digest == "digest-abc"


class TestContentAddressing:
    def test_identical_cohort_reuses_version_and_objects(self, tmp_path):
        store = ModelStore(tmp_path)
        v1 = store.save_cohort([make_artifact("lstm")[0]])
        objects = sorted(p.name for p in store.objects_dir.iterdir())
        v2 = store.save_cohort([make_artifact("lstm")[0]])
        assert v1 == v2
        assert sorted(p.name for p in store.objects_dir.iterdir()) == objects

    def test_changed_weights_mint_new_version(self, tmp_path):
        store = ModelStore(tmp_path)
        v1 = store.save_cohort([make_artifact("lstm", seed=0)[0]])
        v2 = store.save_cohort([make_artifact("lstm", seed=1)[0]])
        assert v1 != v2
        assert set(store.versions()) == {v1, v2}

    def test_digest_is_container_independent(self):
        arrays = {"a": np.arange(6.0).reshape(2, 3)}
        assert _digest_arrays(arrays) == _digest_arrays(
            {"a": np.arange(6.0).reshape(2, 3)})
        assert _digest_arrays(arrays) != _digest_arrays(
            {"a": np.arange(6.0).reshape(3, 2)})

    def test_latest_version_is_newest(self, tmp_path, monkeypatch):
        store = ModelStore(tmp_path)
        times = iter([100.0, 200.0])
        monkeypatch.setattr("repro.serving.store.time.time",
                            lambda: next(times))
        store.save_cohort([make_artifact("lstm", seed=0)[0]], version="old")
        store.save_cohort([make_artifact("lstm", seed=1)[0]], version="new")
        assert store.latest_version() == "new"


class TestDegradation:
    def _two_person_store(self, tmp_path):
        store = ModelStore(tmp_path)
        a0, _ = make_artifact("tgcn", identifier="p0", seed=0)
        a1, _ = make_artifact("tgcn", identifier="p1", seed=1)
        version = store.save_cohort([a0, a1])
        return store, version

    def test_corrupt_manifest_raises(self, tmp_path):
        store, version = self._two_person_store(tmp_path)
        (store.versions_dir / f"{version}.json").write_text("{not json")
        with pytest.raises(StoreIntegrityError, match="unreadable"):
            store.load_cohort(version)

    def test_malformed_manifest_shape_raises(self, tmp_path):
        store, version = self._two_person_store(tmp_path)
        (store.versions_dir / f"{version}.json").write_text(
            json.dumps({"format": 1, "entries": "nope"}))
        with pytest.raises(StoreIntegrityError, match="malformed"):
            store.load_cohort(version)

    def test_future_format_rejected(self, tmp_path):
        store, version = self._two_person_store(tmp_path)
        path = store.versions_dir / f"{version}.json"
        manifest = json.loads(path.read_text())
        manifest["format"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreIntegrityError, match="format"):
            store.load_cohort(version)

    def test_corrupt_object_degrades_entry_with_warning(self, tmp_path):
        store, version = self._two_person_store(tmp_path)
        manifest = store.manifest(version)
        target = manifest["entries"][0]["object"]
        (store.objects_dir / f"{target}.npz").write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="skipping this individual"):
            shard = store.load_shard(version)
        assert list(shard.artifacts) == ["p1"]

    def test_missing_object_degrades_entry(self, tmp_path):
        store, version = self._two_person_store(tmp_path)
        manifest = store.manifest(version)
        target = manifest["entries"][1]["object"]
        (store.objects_dir / f"{target}.npz").unlink()
        with pytest.warns(RuntimeWarning, match="missing on disk"):
            shard = store.load_shard(version)
        assert list(shard.artifacts) == ["p0"]

    def test_bit_rot_detected_by_content_hash(self, tmp_path):
        # Valid npz, wrong content: re-save a different payload under the
        # old address.  Only the content re-hash can catch this.
        store, version = self._two_person_store(tmp_path)
        manifest = store.manifest(version)
        target = manifest["entries"][0]["object"]
        other = make_artifact("tgcn", identifier="p0", seed=9)[0]
        from repro.serving.store import _artifact_arrays

        with open(store.objects_dir / f"{target}.npz", "wb") as handle:
            np.savez(handle, **_artifact_arrays(other))
        with pytest.warns(RuntimeWarning, match="does not match its"):
            shard = store.load_shard(version)
        assert list(shard.artifacts) == ["p1"]

    def test_strict_mode_raises_instead_of_degrading(self, tmp_path):
        store, version = self._two_person_store(tmp_path)
        manifest = store.manifest(version)
        target = manifest["entries"][0]["object"]
        (store.objects_dir / f"{target}.npz").write_bytes(b"garbage")
        with pytest.raises(StoreIntegrityError, match="corrupt"):
            store.load_cohort(version, strict=True)

    def test_all_entries_degraded_raises(self, tmp_path):
        store, version = self._two_person_store(tmp_path)
        for path in store.objects_dir.glob("*.npz"):
            path.write_bytes(b"garbage")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(StoreIntegrityError, match="no loadable"):
                store.load_cohort(version)

    def test_template_mismatch_degrades_entry(self, tmp_path):
        # A state key the registry model does not have (e.g. written by
        # a different model revision) must not load.
        artifact, _ = make_artifact("lstm")
        artifact.state["bogus.weight"] = np.zeros(3)
        store = ModelStore(tmp_path)
        version = store.save_cohort([artifact,
                                     make_artifact("lstm",
                                                   identifier="p1")[0]])
        with pytest.warns(RuntimeWarning, match="diverge from the registry"):
            shard = store.load_shard(version)
        assert list(shard.artifacts) == ["p1"]

    def test_unknown_version_raises(self, tmp_path):
        store, _ = self._two_person_store(tmp_path)
        with pytest.raises(StoreVersionError, match="unknown version"):
            store.manifest("nope")

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(StoreVersionError, match="no versions"):
            ModelStore(tmp_path / "empty").latest_version()


class TestVersionSkew:
    def test_matching_digest_loads(self, tmp_path):
        store = ModelStore(tmp_path)
        version = store.save_cohort([make_artifact("lstm")[0]])
        shard = store.load_shard(version,
                                 expected_config_digest="digest-abc")
        assert list(shard.artifacts) == ["p0"]

    def test_skewed_digest_rejected(self, tmp_path):
        store = ModelStore(tmp_path)
        version = store.save_cohort([make_artifact("lstm")[0]])
        with pytest.raises(StoreVersionError, match="version skew"):
            store.load_cohort(version, expected_config_digest="digest-xyz")


class TestShards:
    def test_artifacts_group_by_model(self, tmp_path):
        store = ModelStore(tmp_path)
        version = store.save_cohort([
            make_artifact("lstm", identifier="p0")[0],
            make_artifact("tgcn", identifier="p0")[0],
            make_artifact("tgcn", identifier="p1")[0]])
        shards = store.load_cohort(version)
        by_model = {s.model_name: sorted(s.artifacts) for s in shards}
        assert by_model == {"lstm": ["p0"], "tgcn": ["p0", "p1"]}

    def test_verdict_recorded_per_model(self, tmp_path):
        store = ModelStore(tmp_path)
        version = store.save_cohort([make_artifact("tgcn")[0],
                                     make_artifact("mtgnn",
                                                   identifier="p1")[0]])
        shards = {s.model_name: s for s in store.load_cohort(version)}
        assert shards["tgcn"].verdict["stackable"] is True
        assert shards["mtgnn"].verdict["stackable"] is False

    def test_build_shards_matches_loaded_grouping(self, tmp_path):
        artifacts = [make_artifact("tgcn", identifier=f"p{i}", seed=i)[0]
                     for i in range(3)]
        in_memory = build_shards(artifacts)
        assert len(in_memory) == 1
        assert sorted(in_memory[0].artifacts) == ["p0", "p1", "p2"]
        store = ModelStore(tmp_path)
        version = store.save_cohort(artifacts)
        loaded = store.load_cohort(version)
        assert sorted(loaded[0].artifacts) == sorted(in_memory[0].artifacts)

    def test_load_shard_selection(self, tmp_path):
        store = ModelStore(tmp_path)
        version = store.save_cohort([make_artifact("lstm")[0],
                                     make_artifact("tgcn")[0]])
        assert store.load_shard(version,
                                model_name="lstm").model_name == "lstm"
        with pytest.raises(StoreVersionError, match="ambiguous"):
            store.load_shard(version)
        with pytest.raises(StoreVersionError, match="no shard matches"):
            store.load_shard(version, model_name="astgcn")


class TestProcessState:
    def test_materialize_leaves_the_default_dtype_alone(self, tmp_path):
        # Serving a float64 shard must not change what a later fit in the
        # same float32 process builds.
        artifact, _ = make_artifact("mtgnn", "float64")
        store = ModelStore(tmp_path)
        version = store.save_cohort([artifact])
        ad.set_default_dtype("float32")
        _TEMPLATE_SPECS.clear()  # the template build must run as well
        shard = store.load_shard(version)
        model = shard.materialize("p0")
        assert ad.get_default_dtype() == np.float32
        assert {p.dtype for p in model.parameters()} == {np.dtype("float64")}
        fresh = create_model("lstm", V, L, seed=0)
        assert {p.dtype for p in fresh.parameters()} == {np.dtype("float32")}

    @pytest.mark.parametrize("model_name", ["lstm", "tgcn", "a3tgcn"])
    def test_predict_casts_windows_to_the_model_dtype(self, tmp_path,
                                                      model_name):
        # A float64 shard in a float32 process: solo predict must forecast
        # from float64 windows, exactly as the engine does.
        from repro.serving import InferenceEngine

        artifact, _ = make_artifact(model_name, "float64")
        store = ModelStore(tmp_path)
        shard = store.load_shard(store.save_cohort([artifact]))
        ad.set_default_dtype("float32")
        window = np.asarray(artifact.window_tail)
        solo = shard.materialize("p0").predict(window[None])[0]
        served = InferenceEngine([shard]).forecast("p0", window)
        assert solo.dtype == np.dtype("float64")
        np.testing.assert_array_equal(solo, served)

    def test_manifest_is_fsynced_before_it_is_published(self, tmp_path,
                                                        monkeypatch):
        import os

        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        artifact, _ = make_artifact("lstm")
        version = ModelStore(tmp_path).save_cohort([artifact])
        manifest = tmp_path / "versions" / f"{version}.json"
        inode = manifest.stat().st_ino
        assert calls[-2:] == [("fsync", inode), ("replace", inode)]
        assert json.loads(manifest.read_text())["version"] == version
