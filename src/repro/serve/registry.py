"""Versioned on-disk model registry for the serving subsystem.

Offline training produces a model object in memory; serving needs the same
model back in a *different* process, possibly much later, together with
enough metadata to reconstruct the architecture and to check that it is
being served against the structure it was trained on.  The registry stores,
per ``(name, version)``:

* ``params.npz``  — the state dict, written by :mod:`repro.nn.serialization`;
* ``meta.json``   — the architecture signature (model type + constructor
  arguments inferred from the instance), the graph fingerprint of the
  training structure, a canonical rendering of the
  :class:`~repro.core.config.MethodSettings` used (when given), and free-form
  caller metadata (dataset name / seed / scale for the CLI round trip).

Versions are integers assigned monotonically per name; ``load`` resolves the
latest version by default.  Loading rebuilds the model through
:func:`repro.gnn.models.build_model` and restores the parameters — the
round-trip is exact (bit-for-bit ``state_dict`` equality is asserted by the
registry tests for GCN, GraphSAGE and GAT).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gnn.models import GAT, GCN, GNNModel, GraphSAGE, build_model
from repro.graphs.graph import Graph
from repro.nn.serialization import load_into, save_state_dict
from repro.sparse.csr import CSRMatrix
from repro.utils.cache import stable_hash

__all__ = ["graph_fingerprint", "ModelRegistry", "model_signature"]

DEFAULT_REGISTRY_ROOT = os.path.join("results", "registry")

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def graph_fingerprint(structure) -> str:
    """Content hash of a graph structure (dense array, CSR or ``Graph``).

    Two structures fingerprint equally iff their adjacency entries are
    identical, regardless of representation — the registry stores this so a
    serving process can verify it is answering over the structure (revision)
    the model was trained on.
    """
    if isinstance(structure, Graph):
        structure = structure.csr()
    if not isinstance(structure, CSRMatrix):
        structure = CSRMatrix.from_dense(np.asarray(structure, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(np.asarray(structure.shape, dtype=np.int64).tobytes())
    digest.update(structure.indptr.tobytes())
    digest.update(structure.indices.tobytes())
    digest.update(structure.data.tobytes())
    return digest.hexdigest()[:24]


def model_signature(model: GNNModel) -> Tuple[str, Dict]:
    """Infer ``(model type, build_model kwargs)`` from a model instance."""
    if isinstance(model, GCN):
        first: object = model.conv0
        last = getattr(model, f"conv{model.num_layers - 1}")
        return "gcn", {
            "in_features": first.in_features,
            "hidden_features": (
                first.out_features if model.num_layers > 1 else 16
            ),
            "num_classes": last.out_features,
            "num_layers": model.num_layers,
            "dropout": model.dropout.p,
        }
    if isinstance(model, GraphSAGE):
        return "graphsage", {
            "in_features": model.conv0.in_features,
            "hidden_features": model.conv0.out_features,
            "num_classes": model.conv1.out_features,
            "dropout": model.dropout.p,
            "num_samples": model.num_samples,
        }
    if isinstance(model, GAT):
        return "gat", {
            "in_features": model.conv0.in_features,
            "hidden_features": model.conv0.out_features * model.conv0.heads,
            "num_classes": model.conv1.out_features,
            "heads": model.conv0.heads,
            "dropout": model.dropout.p,
        }
    raise TypeError(f"cannot infer a registry signature for {type(model).__name__}")


class ModelRegistry:
    """Filesystem-backed store of trained models, addressed by name/version."""

    def __init__(self, root: str = DEFAULT_REGISTRY_ROOT) -> None:
        self.root = root

    @staticmethod
    def plan_cache():
        """The process-wide fused inference-plan cache.

        Plans are keyed by ``(architecture signature hash, parameter content
        hash)`` — the same :func:`model_signature` that names a
        registry entry — so every engine replica serving one registry version
        records the plan once and replays it thereafter, and loading a new
        version (new parameter hash) records a fresh plan instead of
        replaying stale weights.
        """
        from repro.gnn.plan import shared_plan_cache

        return shared_plan_cache()

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def save(
        self,
        name: str,
        model: GNNModel,
        graph=None,
        settings=None,
        metadata: Optional[Dict] = None,
    ) -> int:
        """Persist ``model`` under ``name``; returns the assigned version.

        ``graph`` (a ``Graph``, dense array or CSR) records the training
        structure's fingerprint; ``settings`` (typically a
        :class:`~repro.core.config.MethodSettings`) is content-hashed and
        canonically rendered so a later process can tell two configurations
        apart; ``metadata`` is stored verbatim (must be JSON-serialisable).
        """
        self._check_name(name)
        os.makedirs(os.path.join(self.root, name), exist_ok=True)
        # Claim the version directory atomically (mkdir is O_EXCL): two
        # processes registering concurrently get distinct versions instead of
        # interleaving their files inside one entry.
        version = self.latest_version(name) + 1
        while True:
            directory = self._entry_dir(name, version)
            try:
                os.mkdir(directory)
                break
            except FileExistsError:
                version += 1
        model_type, kwargs = model_signature(model)
        meta = {
            "name": name,
            "version": version,
            "model_type": model_type,
            "model_kwargs": kwargs,
            "graph_fingerprint": (
                None if graph is None else graph_fingerprint(graph)
            ),
            "settings_hash": None if settings is None else stable_hash(settings),
            "metadata": dict(metadata or {}),
        }
        save_state_dict(model, os.path.join(directory, "params.npz"))
        meta_path = os.path.join(directory, "meta.json")
        tmp_path = meta_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
        # The metadata file is the commit marker: versions without one are
        # treated as absent, so a crashed save never yields a readable entry.
        os.replace(tmp_path, meta_path)
        return version

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def load(
        self,
        name: str,
        version: Optional[int] = None,
        expect_graph=None,
    ) -> Tuple[GNNModel, Dict]:
        """Rebuild and return ``(model, meta)`` for ``name``/``version``.

        ``version=None`` resolves the latest.  When ``expect_graph`` is
        given, its fingerprint must match the recorded training structure —
        the guard against serving a model over a different graph than it was
        trained on (incremental mutations *intentionally* change the
        fingerprint; pass the pre-mutation structure or skip the check).
        """
        meta = self.read_meta(name, version)
        kwargs = dict(meta["model_kwargs"])
        model = build_model(
            meta["model_type"],
            in_features=kwargs.pop("in_features"),
            num_classes=kwargs.pop("num_classes"),
            hidden_features=kwargs.pop("hidden_features"),
            rng=0,
            **kwargs,
        )
        load_into(model, os.path.join(self._entry_dir(name, meta["version"]), "params.npz"))
        model.eval()
        if expect_graph is not None:
            expected = meta.get("graph_fingerprint")
            actual = graph_fingerprint(expect_graph)
            if expected is not None and expected != actual:
                raise ValueError(
                    f"registry entry {name!r} v{meta['version']} was trained on a "
                    f"different structure (fingerprint {expected} != {actual})"
                )
        return model, meta

    def read_meta(self, name: str, version: Optional[int] = None) -> Dict:
        """The metadata dictionary of one entry (latest version by default)."""
        self._check_name(name)
        if version is None:
            version = self.latest_version(name)
            if version == 0:
                raise KeyError(f"no registered model named {name!r} under {self.root}")
        path = os.path.join(self._entry_dir(name, version), "meta.json")
        if not os.path.isfile(path):
            raise KeyError(f"no registered model {name!r} version {version}")
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def versions(self, name: str) -> List[int]:
        """All committed versions of ``name``, ascending."""
        self._check_name(name)
        directory = os.path.join(self.root, name)
        if not os.path.isdir(directory):
            return []
        found = []
        for entry in os.listdir(directory):
            match = re.fullmatch(r"v(\d+)", entry)
            if match and os.path.isfile(os.path.join(directory, entry, "meta.json")):
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self, name: str) -> int:
        """Highest committed version of ``name`` (0 when absent)."""
        versions = self.versions(name)
        return versions[-1] if versions else 0

    def list_models(self) -> List[str]:
        """Names with at least one committed version."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry
            for entry in os.listdir(self.root)
            if _NAME_PATTERN.fullmatch(entry) and self.versions(entry)
        )

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def pin(self, name: str, version: int) -> None:
        """Protect ``version`` from :meth:`prune` (idempotent)."""
        self.read_meta(name, version)  # raises for absent entries
        with open(self._pin_path(name, version), "w", encoding="utf-8"):
            pass

    def unpin(self, name: str, version: int) -> None:
        """Remove a pin (absent pins are a no-op)."""
        self._check_name(name)
        try:
            os.remove(self._pin_path(name, version))
        except FileNotFoundError:
            pass

    def pinned_versions(self, name: str) -> List[int]:
        """Committed versions of ``name`` currently pinned, ascending."""
        return [
            version
            for version in self.versions(name)
            if os.path.isfile(self._pin_path(name, version))
        ]

    def prune(self, name: str, keep_last: int = 3) -> List[int]:
        """Delete old versions of ``name``; returns the versions removed.

        Keeps the newest ``keep_last`` committed versions plus every pinned
        one.  The latest committed version is always retained — even at
        ``keep_last=0`` — so serving processes resolving "latest" are
        unaffected and version numbers are never reused (the next
        :meth:`save` still claims ``latest + 1``).
        """
        if keep_last < 0:
            raise ValueError("keep_last must be non-negative")
        versions = self.versions(name)
        keep = set(versions[max(0, len(versions) - keep_last) :] if keep_last else [])
        keep.update(versions[-1:])
        keep.update(self.pinned_versions(name))
        removed = [version for version in versions if version not in keep]
        for version in removed:
            shutil.rmtree(self._entry_dir(name, version))
        return removed

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _pin_path(self, name: str, version: int) -> str:
        return os.path.join(self._entry_dir(name, version), "PINNED")

    def _entry_dir(self, name: str, version: int) -> str:
        return os.path.join(self.root, name, f"v{version}")

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_PATTERN.fullmatch(name):
            raise ValueError(
                "model names must be alphanumeric with ._- separators, "
                f"got {name!r}"
            )
