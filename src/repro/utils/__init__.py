"""Shared utilities: random-number management, validation and caching."""

from repro.utils.rng import RandomState, ensure_rng, spawn_children
from repro.utils.validation import (
    check_adjacency,
    check_features,
    check_labels,
    check_probability,
    check_positive,
    check_in_range,
)
from repro.utils.cache import ArtifactCache, CacheStats, stable_hash

__all__ = [
    "RandomState",
    "ensure_rng",
    "spawn_children",
    "ArtifactCache",
    "CacheStats",
    "stable_hash",
    "check_adjacency",
    "check_features",
    "check_labels",
    "check_probability",
    "check_positive",
    "check_in_range",
]
