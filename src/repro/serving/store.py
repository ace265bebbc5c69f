"""Versioned, content-addressed on-disk store of fitted cohorts.

The ROADMAP's serving story starts here: training produces one small
model *per individual*, and a forecast service must reload exactly what
was trained — weights, but also the individual's graph (the paper's
thesis is that the graph IS part of the model) and the provenance needed
to rebuild the surrounding computation bit-identically (dtype,
construction method/GDT/seed, config digests, normalization stats).

Layout (one directory per store)::

    store/
      objects/<sha1>.npz      # content-addressed per-individual payloads
      versions/<version>.json # manifests: entry metadata -> object hashes

Content addressing uses the same discipline as
:mod:`repro.nn.graphcache`: an object's address is the SHA-1 over its
arrays' *logical* content (name, shape, dtype, payload bytes), not over
the npz container — zip metadata (timestamps) never perturbs the
address, and two versions sharing an unchanged individual share one
object file.  On load every object is re-hashed, so silent corruption is
detected; a corrupt or missing object degrades that entry with a
``RuntimeWarning`` — the same partial-tolerance contract as
:class:`~repro.training.parallel.CohortCheckpoint`'s truncated-tail
recovery — while a corrupt *manifest* (the index itself) raises
:class:`StoreIntegrityError`.

Integrity beyond hashes: each entry's state arrays are checked
shape-for-shape and dtype-for-dtype against a freshly built registry
model (the template), and the manifest records the static fast-path
verdict (:func:`repro.analysis.fastpath.registry_verdict`) so the
inference engine knows — without a wasted probe — whether the shard may
take the stacked batched path.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
import zipfile
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..autodiff import default_dtype
from ..models import ModelConfig, create_model
from ..models.registry import MODEL_REGISTRY

__all__ = ["CohortArtifact", "CohortShard", "ModelStore", "StoreError",
           "StoreIntegrityError", "StoreVersionError", "MANIFEST_FORMAT",
           "build_shards"]

#: Manifest schema version; bumped on incompatible layout changes.
MANIFEST_FORMAT = 1


class StoreError(RuntimeError):
    """Base class for model-store failures."""


class StoreIntegrityError(StoreError):
    """The store's index (a manifest) is unreadable or malformed."""


class StoreVersionError(StoreError):
    """The requested version does not exist or does not match the caller.

    Raised on unknown version ids and on config-digest skew: a caller
    that pins ``expected_config_digest`` refuses artifacts trained under
    different trainer/model settings, exactly like the checkpoint
    journal's digest-bearing cell keys refuse stale results.
    """


@dataclass
class CohortArtifact:
    """Everything needed to rebuild one individual's fitted forecaster."""

    identifier: str
    model_name: str
    seq_len: int
    num_variables: int
    #: Numpy dtype name the model was trained under (``float32``/``float64``).
    dtype: str
    #: ``Module.state_dict()`` arrays (parameters + flattened extra state).
    state: "dict[str, np.ndarray]"
    #: The individual's variable graph (``None`` for graph-free models).
    adjacency: np.ndarray | None = None
    #: Graph construction provenance.
    graph_method: str | None = None
    gdt: float | None = None
    seed: int | None = None
    #: Per-individual normalization stats of the *training* segment
    #: (provenance for callers feeding raw values; the engine does not
    #: re-normalize — served inputs must match ``predict``'s bit-for-bit).
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None
    #: The last ``seq_len`` observed rows — a ready-made forecast window
    #: for demos and smoke tests.
    window_tail: np.ndarray | None = None
    model_config: ModelConfig | None = None
    #: Digest of the cell-shaping config (see
    #: :func:`repro.training.personalized.cell_config_digest`).
    config_digest: str | None = None

    def shard_key(self) -> tuple:
        """Artifacts sharing this key live in (and load as) one shard."""
        return (self.model_name, int(self.seq_len), self.dtype,
                self.config_digest)


@dataclass
class CohortShard:
    """One loaded (model, seq_len, dtype, config) slice of a cohort."""

    model_name: str
    seq_len: int
    dtype: str
    config_digest: str | None
    model_config: ModelConfig | None
    version: str
    artifacts: "OrderedDict[str, CohortArtifact]" = field(repr=False,
                                                          default_factory=OrderedDict)
    #: Static fast-path verdict dict recorded at save time (may be None).
    verdict: dict | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.artifacts)

    def materialize(self, identifier: str):
        """Rebuild the individual's solo forecaster from its artifact.

        The returned model is bit-identical to the one that produced the
        stored state: same registry constructor, same adjacency, same
        dtype, with the trained arrays loaded over the (discarded) fresh
        initialization.
        """
        artifact = self.artifacts[identifier]
        with default_dtype(artifact.dtype):
            model = create_model(artifact.model_name, artifact.num_variables,
                                 artifact.seq_len, adjacency=artifact.adjacency,
                                 config=artifact.model_config, seed=0)
            model.load_state_dict(artifact.state)
        model.eval()
        return model


# ----------------------------------------------------------------------
# Content addressing (graphcache hashing discipline, over many arrays)
# ----------------------------------------------------------------------

def _digest_arrays(arrays: "dict[str, np.ndarray]") -> str:
    """SHA-1 over the logical content of a named-array mapping.

    Mirrors :func:`repro.nn.graphcache._fingerprint` per array — shape,
    dtype and payload bytes — plus the (sorted) names, so the address is
    independent of container metadata and insertion order.
    """
    digest = hashlib.sha1()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(repr((value.shape, value.dtype.str)).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


_STATE_PREFIX = "state::"
_OPTIONAL_ARRAYS = ("adjacency", "norm_mean", "norm_std", "window_tail")


def _artifact_arrays(artifact: CohortArtifact) -> "dict[str, np.ndarray]":
    arrays = {f"{_STATE_PREFIX}{name}": np.asarray(value)
              for name, value in artifact.state.items()}
    for name in _OPTIONAL_ARRAYS:
        value = getattr(artifact, name)
        if value is not None:
            arrays[name] = np.asarray(value)
    return arrays


def _split_arrays(arrays: "dict[str, np.ndarray]"):
    state = OrderedDict(
        (name[len(_STATE_PREFIX):], arrays[name])
        for name in sorted(arrays) if name.startswith(_STATE_PREFIX))
    extras = {name: arrays.get(name) for name in _OPTIONAL_ARRAYS}
    return state, extras


# ----------------------------------------------------------------------
# Template integrity check
# ----------------------------------------------------------------------

_TEMPLATE_SPECS: "OrderedDict[tuple, dict]" = OrderedDict()
_TEMPLATE_MAX = 64


def _template_spec(artifact: CohortArtifact) -> "dict[str, tuple]":
    """``state key -> (shape, dtype str)`` of a freshly built registry model."""
    key = (artifact.model_name, artifact.num_variables, artifact.seq_len,
           artifact.dtype, repr(artifact.model_config))
    spec = _TEMPLATE_SPECS.get(key)
    if spec is not None:
        _TEMPLATE_SPECS.move_to_end(key)
        return spec
    with default_dtype(artifact.dtype):
        template = create_model(artifact.model_name, artifact.num_variables,
                                artifact.seq_len, adjacency=artifact.adjacency,
                                config=artifact.model_config, seed=0)
    spec = {name: (value.shape, value.dtype.str)
            for name, value in template.state_dict().items()}
    _TEMPLATE_SPECS[key] = spec
    if len(_TEMPLATE_SPECS) > _TEMPLATE_MAX:
        _TEMPLATE_SPECS.popitem(last=False)
    return spec


def _check_against_template(artifact: CohortArtifact) -> str | None:
    """Shape/dtype audit of stored state against the registry model.

    Returns a human-readable problem description, or ``None`` when the
    state is loadable as-is.
    """
    if artifact.model_name not in MODEL_REGISTRY:
        return f"unknown registry model {artifact.model_name!r}"
    try:
        spec = _template_spec(artifact)
    except Exception as error:  # noqa: BLE001 - report, never crash the load
        return (f"could not build the registry template "
                f"({type(error).__name__}: {error})")
    missing = sorted(set(spec) - set(artifact.state))
    unexpected = sorted(set(artifact.state) - set(spec))
    if missing or unexpected:
        return (f"state keys diverge from the registry model: "
                f"missing={missing}, unexpected={unexpected}")
    for name, (shape, dtype_str) in spec.items():
        value = np.asarray(artifact.state[name])
        if tuple(value.shape) != tuple(shape):
            return (f"state {name!r} has shape {tuple(value.shape)}, "
                    f"registry model expects {tuple(shape)}")
        if value.dtype.str != dtype_str:
            return (f"state {name!r} has dtype {value.dtype.str}, "
                    f"registry model expects {dtype_str}")
    return None


def _fastpath_verdict(model_name: str) -> dict | None:
    """The static fast-path verdict for one model (None if unavailable)."""
    try:
        from ..analysis.fastpath import registry_verdict

        return registry_verdict(model_name, None).to_dict()
    except Exception:  # noqa: BLE001 - analysis must never block the store
        return None


def build_shards(artifacts, version: str = "unsaved") -> "list[CohortShard]":
    """Group in-memory artifacts into shards without touching disk.

    The facade's ``fit_cohort`` path: a freshly fitted cohort is served
    straight from memory through the same :class:`CohortShard` shape the
    store loads, so the engine cannot tell (and need not care) whether a
    cohort was persisted first.
    """
    shards: "OrderedDict[tuple, CohortShard]" = OrderedDict()
    for artifact in artifacts:
        key = artifact.shard_key()
        shard = shards.get(key)
        if shard is None:
            shard = CohortShard(
                model_name=artifact.model_name,
                seq_len=artifact.seq_len,
                dtype=artifact.dtype,
                config_digest=artifact.config_digest,
                model_config=artifact.model_config,
                version=version,
                verdict=_fastpath_verdict(artifact.model_name),
            )
            shards[key] = shard
        shard.artifacts[artifact.identifier] = artifact
    return list(shards.values())


class ModelStore:
    """Versioned, content-addressed store of fitted cohort artifacts."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.versions_dir = self.root / "versions"

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def _write_object(self, arrays: "dict[str, np.ndarray]") -> str:
        object_hash = _digest_arrays(arrays)
        path = self.objects_dir / f"{object_hash}.npz"
        if path.exists():
            return object_hash  # content-addressed: identical payload
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return object_hash

    def save_cohort(self, artifacts, *, version: str | None = None,
                    metadata: dict | None = None) -> str:
        """Persist artifacts as one immutable version; returns its id.

        The default version id is content-derived — the SHA-1 (12 hex
        chars) over every entry's (identifier, object hash, config
        digest) — so re-saving an identical cohort reuses both the
        objects *and* the version, while any drift mints a new id.
        """
        artifacts = list(artifacts)
        if not artifacts:
            raise ValueError("save_cohort needs at least one artifact")
        entries = []
        verdicts: dict = {}
        for artifact in artifacts:
            arrays = _artifact_arrays(artifact)
            object_hash = self._write_object(arrays)
            if artifact.model_name not in verdicts:
                verdicts[artifact.model_name] = _fastpath_verdict(
                    artifact.model_name)
            entries.append({
                "identifier": artifact.identifier,
                "model": artifact.model_name,
                "seq_len": int(artifact.seq_len),
                "num_variables": int(artifact.num_variables),
                "dtype": artifact.dtype,
                "graph_method": artifact.graph_method,
                "gdt": artifact.gdt,
                "seed": artifact.seed,
                "config_digest": artifact.config_digest,
                "model_config": None if artifact.model_config is None
                else asdict(artifact.model_config),
                "object": object_hash,
                "params": {name: {"shape": list(np.asarray(value).shape),
                                  "dtype": np.asarray(value).dtype.str}
                           for name, value in artifact.state.items()},
            })
        if version is None:
            digest = hashlib.sha1(repr(sorted(
                (e["identifier"], e["object"], e["config_digest"], e["model"])
                for e in entries)).encode())
            version = digest.hexdigest()[:12]
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": version,
            "created": time.time(),
            "metadata": dict(metadata or {}),
            "verdicts": verdicts,
            "entries": entries,
        }
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        path = self.versions_dir / f"{version}.json"
        tmp = path.with_suffix(".tmp")
        # Durable before it becomes visible: a crash can leave the old
        # manifest or the new one, never an empty file under the name.
        with open(tmp, "w") as handle:
            handle.write(json.dumps(manifest, indent=2, sort_keys=True))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return version

    # ------------------------------------------------------------------
    # Version bookkeeping
    # ------------------------------------------------------------------
    def versions(self) -> "list[str]":
        """Known version ids, oldest first (by manifest creation time)."""
        stamped = []
        for path in sorted(self.versions_dir.glob("*.json")):
            try:
                manifest = json.loads(path.read_text())
                stamped.append((float(manifest.get("created", 0.0)),
                                path.stem))
            except (OSError, ValueError):
                # An unreadable manifest still *names* a version; surface
                # it (loading it will raise with the real diagnosis).
                stamped.append((0.0, path.stem))
        stamped.sort()
        return [version for _, version in stamped]

    def latest_version(self) -> str:
        versions = self.versions()
        if not versions:
            raise StoreVersionError(f"store {self.root} has no versions")
        return versions[-1]

    def manifest(self, version: str | None = None) -> dict:
        """Load and validate one version's manifest."""
        version = version if version is not None else self.latest_version()
        path = self.versions_dir / f"{version}.json"
        if not path.exists():
            known = ", ".join(self.versions()) or "<none>"
            raise StoreVersionError(
                f"unknown version {version!r} in store {self.root} "
                f"(known: {known})")
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise StoreIntegrityError(
                f"manifest {path} is unreadable "
                f"({type(error).__name__}: {error})") from error
        if not isinstance(manifest, dict) \
                or not isinstance(manifest.get("entries"), list):
            raise StoreIntegrityError(
                f"manifest {path} is malformed: expected an object with "
                f"an 'entries' list")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise StoreIntegrityError(
                f"manifest {path} has format {manifest.get('format')!r}; "
                f"this build reads format {MANIFEST_FORMAT}")
        return manifest

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load_entry(self, entry: dict, strict: bool) -> CohortArtifact | None:
        """Load + verify one manifest entry; ``None`` when degraded."""

        def degrade(problem: str) -> None:
            message = (f"store entry {entry.get('identifier')!r} "
                       f"({entry.get('model')}) in {self.root}: {problem}; "
                       f"skipping this individual — the rest of the shard "
                       f"still loads")
            if strict:
                raise StoreIntegrityError(message)
            warnings.warn(message, RuntimeWarning, stacklevel=4)

        required = ("identifier", "model", "seq_len", "num_variables",
                    "dtype", "object")
        missing_fields = [name for name in required if name not in entry]
        if missing_fields:
            degrade(f"manifest entry lacks field(s) {missing_fields}")
            return None
        path = self.objects_dir / f"{entry['object']}.npz"
        if not path.exists():
            degrade(f"object {entry['object']} is missing on disk")
            return None
        try:
            with np.load(path) as payload:
                arrays = {name: payload[name] for name in payload.files}
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile) as error:
            degrade(f"object {entry['object']} is corrupt "
                    f"({type(error).__name__}: {error})")
            return None
        actual = _digest_arrays(arrays)
        if actual != entry["object"]:
            degrade(f"object content hash {actual} does not match its "
                    f"address {entry['object']} (bit rot or tampering)")
            return None
        state, extras = _split_arrays(arrays)
        model_config = None
        if entry.get("model_config") is not None:
            try:
                model_config = ModelConfig(**entry["model_config"])
            except (TypeError, ValueError) as error:
                degrade(f"model_config does not round-trip "
                        f"({type(error).__name__}: {error})")
                return None
        artifact = CohortArtifact(
            identifier=entry["identifier"],
            model_name=entry["model"],
            seq_len=int(entry["seq_len"]),
            num_variables=int(entry["num_variables"]),
            dtype=entry["dtype"],
            state=state,
            adjacency=extras["adjacency"],
            graph_method=entry.get("graph_method"),
            gdt=entry.get("gdt"),
            seed=entry.get("seed"),
            norm_mean=extras["norm_mean"],
            norm_std=extras["norm_std"],
            window_tail=extras["window_tail"],
            model_config=model_config,
            config_digest=entry.get("config_digest"),
        )
        problem = _check_against_template(artifact)
        if problem is not None:
            degrade(problem)
            return None
        return artifact

    def load_cohort(self, version: str | None = None, *,
                    strict: bool = False,
                    expected_config_digest: str | None = None
                    ) -> "list[CohortShard]":
        """Load every shard of one version.

        Corrupt or template-incompatible entries degrade with a
        ``RuntimeWarning`` (``strict=True`` raises instead); a corrupt
        manifest always raises :class:`StoreIntegrityError`; and when
        ``expected_config_digest`` is given, any surviving entry trained
        under a different config digest raises :class:`StoreVersionError`
        (version skew) rather than serving stale weights.
        """
        manifest = self.manifest(version)
        resolved = manifest.get("version", version)
        verdicts = manifest.get("verdicts", {})
        shards: "OrderedDict[tuple, CohortShard]" = OrderedDict()
        loaded = 0
        for entry in manifest["entries"]:
            artifact = self._load_entry(entry, strict)
            if artifact is None:
                continue
            if expected_config_digest is not None \
                    and artifact.config_digest != expected_config_digest:
                raise StoreVersionError(
                    f"version skew: entry {artifact.identifier!r} was "
                    f"trained under config digest "
                    f"{artifact.config_digest!r}, caller expects "
                    f"{expected_config_digest!r} — refusing to serve "
                    f"mismatched weights")
            loaded += 1
            key = artifact.shard_key()
            shard = shards.get(key)
            if shard is None:
                shard = CohortShard(
                    model_name=artifact.model_name,
                    seq_len=artifact.seq_len,
                    dtype=artifact.dtype,
                    config_digest=artifact.config_digest,
                    model_config=artifact.model_config,
                    version=str(resolved),
                    verdict=verdicts.get(artifact.model_name),
                )
                shards[key] = shard
            shard.artifacts[artifact.identifier] = artifact
        if not loaded:
            raise StoreIntegrityError(
                f"version {resolved!r} in store {self.root} has no "
                f"loadable entries (all degraded)")
        return list(shards.values())

    def load_shard(self, version: str | None = None, *,
                   model_name: str | None = None,
                   seq_len: int | None = None,
                   dtype: str | None = None,
                   strict: bool = False,
                   expected_config_digest: str | None = None) -> CohortShard:
        """Load exactly one shard, selected by model/seq_len/dtype."""
        shards = self.load_cohort(version, strict=strict,
                                  expected_config_digest=expected_config_digest)
        matches = [s for s in shards
                   if (model_name is None or s.model_name == model_name)
                   and (seq_len is None or s.seq_len == seq_len)
                   and (dtype is None or s.dtype == dtype)]
        if not matches:
            available = ", ".join(
                f"({s.model_name}, seq{s.seq_len}, {s.dtype})"
                for s in shards)
            raise StoreVersionError(
                f"no shard matches (model={model_name}, seq_len={seq_len}, "
                f"dtype={dtype}); available: {available}")
        if len(matches) > 1:
            available = ", ".join(
                f"({s.model_name}, seq{s.seq_len}, {s.dtype})"
                for s in matches)
            raise StoreVersionError(
                f"ambiguous shard selection — narrow it down: {available}")
        return matches[0]
