"""Persisting pre-clustering results and in-flight scan checkpoints.

The point of pre-clustering (Section 2) is to hand a *condensed* dataset to
later, more expensive analysis — which often happens in another process or
on another day. This module serializes the sub-cluster summaries
(:class:`~repro.core.features.SubCluster`) to JSON and back.

Vectors and strings round-trip out of the box; arbitrary object types can
supply ``encode`` / ``decode`` callables.

It also provides **scan checkpoints** (:func:`save_checkpoint` /
:func:`load_checkpoint`): full snapshots of a live CF*-tree — structure,
policy state, RNG state — plus the scan cursor, so a build killed at object
9-million restarts from the last checkpoint instead of from zero. Because
data objects are arbitrary Python values, checkpoints use :mod:`pickle`;
the one thing deliberately *excluded* from the payload is the distance
function itself (it may close over sockets, native handles, or lambdas),
which the loader re-attaches to every structure that referenced it. Only
load checkpoints you wrote yourself — pickle executes code on load.
"""

from __future__ import annotations

import io
import json
import os
import pickle
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import SubCluster
from repro.exceptions import CheckpointError, ParameterError
from repro.metrics.base import DistanceFunction

__all__ = [
    "save_subclusters",
    "load_subclusters",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
    "is_sharded_checkpoint",
    "load_shard_manifest",
    "save_shard_manifest",
    "shard_checkpoint_file",
]

_FORMAT_VERSION = 1


def _default_encode(obj):
    if isinstance(obj, str):
        return {"t": "str", "v": obj}
    arr = np.asarray(obj)
    if arr.ndim == 1 and arr.dtype.kind in "fiu":
        return {"t": "vec", "v": [float(x) for x in arr]}
    raise ParameterError(
        f"cannot serialize object of type {type(obj).__name__}; "
        "pass encode=/decode= callables for custom object types"
    )


def _default_decode(payload):
    if payload["t"] == "str":
        return payload["v"]
    if payload["t"] == "vec":
        return np.asarray(payload["v"], dtype=np.float64)
    raise ParameterError(f"unknown serialized object tag {payload['t']!r}")


def save_subclusters(
    path: str | os.PathLike,
    subclusters: list[SubCluster],
    encode: Callable | None = None,
    metadata: dict | None = None,
) -> None:
    """Write sub-clusters to a JSON file.

    Parameters
    ----------
    path:
        Output file.
    subclusters:
        The summaries to persist (e.g. ``model.subclusters_``).
    encode:
        Object serializer returning a JSON-compatible value; defaults handle
        numeric vectors and strings.
    metadata:
        Optional free-form dict stored alongside (e.g. the metric name and
        parameters used, so the load side can reconstruct context).
    """
    enc = encode if encode is not None else _default_encode
    doc = {
        "format_version": _FORMAT_VERSION,
        "metadata": metadata or {},
        "subclusters": [
            {
                "n": s.n,
                "radius": s.radius,
                "clustroid": enc(s.clustroid),
                "representatives": [enc(r) for r in s.representatives],
            }
            for s in subclusters
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_subclusters(
    path: str | os.PathLike,
    decode: Callable | None = None,
) -> tuple[list[SubCluster], dict]:
    """Read sub-clusters written by :func:`save_subclusters`.

    Returns ``(subclusters, metadata)``.
    """
    dec = decode if decode is not None else _default_decode
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    version = doc.get("format_version")
    if version != _FORMAT_VERSION:
        raise ParameterError(
            f"unsupported subcluster file version {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    subclusters = [
        SubCluster(
            clustroid=dec(item["clustroid"]),
            n=int(item["n"]),
            radius=float(item["radius"]),
            representatives=[dec(r) for r in item["representatives"]],
        )
        for item in doc["subclusters"]
    ]
    return subclusters, doc.get("metadata", {})


# ----------------------------------------------------------------------
# Scan checkpoints
# ----------------------------------------------------------------------

_CHECKPOINT_VERSION = 8
_METRIC_PID = "repro.metric"


class _HeaderUnpickler(pickle.Unpickler):
    """Reads the version header; a header names no class, so any class
    lookup means a payload from before version 8, which had no header."""

    def find_class(self, module, name):
        raise CheckpointError(
            "unsupported checkpoint version: the file has no version header "
            f"(written before version 8; this build reads version {_CHECKPOINT_VERSION})"
        )


class _MetricStrippingPickler(pickle.Pickler):
    """Pickle everything except :class:`DistanceFunction` instances.

    Every reference to the (single) metric object becomes a persistent id;
    the loader substitutes a live metric, preserving the shared-identity
    invariant that ties the tree, its policy, features, and per-node
    mappers to one NCD counter.
    """

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._seen_metric_ids: set[int] = set()

    def persistent_id(self, obj):
        if isinstance(obj, DistanceFunction):
            self._seen_metric_ids.add(id(obj))
            if len(self._seen_metric_ids) > 1:
                raise CheckpointError(
                    "checkpointing supports exactly one DistanceFunction "
                    "instance shared across the tree; found more than one"
                )
            return _METRIC_PID
        return None


class _MetricRestoringUnpickler(pickle.Unpickler):
    def __init__(self, file, metric: DistanceFunction):
        super().__init__(file)
        self._metric = metric

    def persistent_load(self, pid):
        if pid == _METRIC_PID:
            return self._metric
        raise CheckpointError(f"unknown persistent id {pid!r} in checkpoint")


@dataclass
class Checkpoint:
    """One restored scan snapshot."""

    #: The CF*-tree exactly as it was, metric re-attached.
    tree: object
    #: Number of objects consumed from the input stream so far.
    cursor: int
    #: Caller-owned picklable state (quarantine buffer, report counters).
    state: dict = field(default_factory=dict)
    #: Free-form metadata stored at save time.
    metadata: dict = field(default_factory=dict)

    def index(self, metric: DistanceFunction | None = None, **kwargs):
        """A ready ``cftree`` :class:`~repro.index.MetricIndex` over the
        restored tree's clustroids.

        The leaf geometry caches travel inside the checkpoint pickle
        (``node.aux``), so serving queries from a restored checkpoint
        costs only the non-leaf anchor distances — no re-measurement of
        the leaf pairwise matrices. ``metric`` defaults to the one
        re-attached at load time.
        """
        from repro.index.cftree import CFTreeIndex

        return CFTreeIndex.from_tree(self.tree, metric=metric, **kwargs)


def save_checkpoint(
    path: str | os.PathLike,
    tree,
    *,
    cursor: int = 0,
    state: dict | None = None,
    metadata: dict | None = None,
) -> None:
    """Atomically snapshot a live CF*-tree and its scan position.

    The tree is pickled in full — node structure, leaf features, policy
    (including per-node sample caches and FastMap image spaces), and the
    shared RNG so a resumed scan draws the same random stream an
    uninterrupted one would. The distance function is *not* stored;
    :func:`load_checkpoint` re-attaches one.

    The format version is pickled on its own ahead of the payload, so a
    loader checks it before unpickling any class the payload names. The
    write goes to a temp file in the same directory followed by
    ``os.replace``, so a crash mid-write never corrupts an existing
    checkpoint.
    """
    payload = {
        "cursor": int(cursor),
        "state": state or {},
        "metadata": metadata or {},
        "tree": tree,
    }
    buf = io.BytesIO()
    pickle.dump(_CHECKPOINT_VERSION, buf, protocol=pickle.HIGHEST_PROTOCOL)
    _MetricStrippingPickler(buf).dump(payload)
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(buf.getvalue())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash-path cleanup
            os.unlink(tmp)


def load_checkpoint(path: str | os.PathLike, metric: DistanceFunction) -> Checkpoint:
    """Restore a snapshot written by :func:`save_checkpoint`.

    Parameters
    ----------
    path:
        The checkpoint file.
    metric:
        The live distance function to re-attach everywhere the saved tree
        referenced its metric. Must be behaviorally identical to the one
        used during the original scan for resume-equivalence to hold.

    Only load checkpoints from trusted sources: the payload is a pickle.
    """
    if not isinstance(metric, DistanceFunction):
        raise ParameterError("metric must be a DistanceFunction")
    if os.path.isdir(path):
        raise CheckpointError(
            f"{os.fspath(path)!r} is a sharded checkpoint directory, not a "
            "sequential checkpoint file; resume it with a sharded build "
            "(n_jobs/n_shards) using the same n_shards it was written with"
        )
    try:
        with open(path, "rb") as f:
            version = _HeaderUnpickler(f).load()
            if version != _CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version!r} "
                    f"(this build reads version {_CHECKPOINT_VERSION})"
                )
            payload = _MetricRestoringUnpickler(f, metric).load()
    except (OSError, CheckpointError):
        # I/O failures and our own diagnostics carry their meaning already.
        raise
    except Exception as exc:
        # pickle surfaces corrupt streams through a zoo of exception types,
        # not just UnpicklingError: a stray GET opcode raises ValueError, a
        # flipped length byte can surface IndexError, MemoryError, even
        # SystemError from the C accelerator — so any non-I/O failure of
        # the load is diagnosed as a corrupt checkpoint.
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or "tree" not in payload:
        raise CheckpointError(f"checkpoint {path!r} has an unrecognized layout")
    return Checkpoint(
        tree=payload["tree"],
        cursor=int(payload.get("cursor", 0)),
        state=payload.get("state", {}),
        metadata=payload.get("metadata", {}),
    )


# ----------------------------------------------------------------------
# Sharded checkpoints (parallel builds)
# ----------------------------------------------------------------------
#
# A sharded build checkpoints into a *directory*: one manifest describing
# the partition (so a resume can verify it reproduces the same shards) plus
# one ordinary checkpoint file per shard, each written atomically by its
# worker through save_checkpoint. Any shard file may be missing (that shard
# never reached its first checkpoint) — a resume simply rescans it.

_MANIFEST_VERSION = 2
_MANIFEST_NAME = "manifest.json"


def shard_checkpoint_file(directory: str | os.PathLike, shard_id: int) -> str:
    """Path of shard ``shard_id``'s checkpoint inside a sharded directory."""
    return os.path.join(os.fspath(directory), f"shard-{int(shard_id):04d}.ckpt")


def is_sharded_checkpoint(path: str | os.PathLike) -> bool:
    """True when ``path`` is a sharded checkpoint directory (has a manifest)."""
    return os.path.isdir(path) and os.path.exists(
        os.path.join(os.fspath(path), _MANIFEST_NAME)
    )


def save_shard_manifest(directory: str | os.PathLike, manifest: dict) -> None:
    """Atomically write a sharded build's manifest, creating the directory.

    The manifest pins everything that determines the partition — shard
    count, algorithm, seed — plus the build configuration, so
    :func:`load_shard_manifest` callers can refuse a resume that would
    silently redistribute objects or continue under different knobs.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    doc = dict(manifest)
    doc["format_version"] = _MANIFEST_VERSION
    path = os.path.join(directory, _MANIFEST_NAME)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash-path cleanup
            os.unlink(tmp)


def load_shard_manifest(directory: str | os.PathLike) -> dict:
    """Read and validate the manifest of a sharded checkpoint directory."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise CheckpointError(
            f"{directory!r} is not a sharded checkpoint directory; a "
            "sequential checkpoint file cannot seed a sharded build (its "
            "single tree cannot be split back into shards)"
        )
    path = os.path.join(directory, _MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise CheckpointError(
            f"sharded checkpoint {directory!r} has no readable manifest: {exc}"
        ) from exc
    except ValueError as exc:
        raise CheckpointError(
            f"sharded checkpoint manifest {path!r} is corrupt: {exc}"
        ) from exc
    if not isinstance(doc, dict) or doc.get("format_version") != _MANIFEST_VERSION:
        raise CheckpointError(
            f"unsupported shard manifest version in {path!r} "
            f"(this build reads version {_MANIFEST_VERSION})"
        )
    return doc
