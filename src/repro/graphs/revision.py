"""Revision tagging of adjacency structures for operator caching.

The operator cache (:mod:`repro.sparse.opcache`) memoises propagation
operators (GCN normalisation, Laplacians, neighbourhood means) so that
repeated forward passes over the same structure — every epoch of vanilla
training, every PPFR fine-tune step — stop rebuilding them.  Caching a
derived operator is only sound if the cache key changes whenever the
underlying structure changes, so this module maintains a process-wide
*revision registry*:

* every :class:`repro.graphs.Graph` tags its adjacency and its feature
  matrix with fresh, monotonically increasing revision ids at construction
  and re-tags both on any mutation (``bump_revision``; structure-deriving
  helpers like ``with_adjacency`` construct a new ``Graph`` and therefore a
  new revision);
* perturbation producers (:mod:`repro.core.perturbation`,
  :mod:`repro.privacy.dp`) tag the arrays they return as *owned* — they
  allocate them and never mutate them afterwards;
* arrays of unknown provenance get a *session* tag that is refreshed every
  time a consumer (e.g. the trainer) re-enters them, so a stale operator can
  never be served for an array that was mutated between uses.

The registry is keyed by object identity and cleaned up through weak
references, so tagging never extends an array's lifetime.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Optional

__all__ = [
    "next_revision",
    "tag_adjacency",
    "adjacency_revision",
    "ensure_revision",
]

_COUNTER = itertools.count(1)
_LOCK = threading.Lock()

# id(obj) -> (revision, owned).  Entries are evicted by a weakref.finalize
# callback when the tagged object is garbage collected.
_REGISTRY: dict = {}


def next_revision() -> int:
    """Return a fresh process-unique revision id (thread-safe, monotonic)."""
    with _LOCK:
        return next(_COUNTER)


def _evict(key: int) -> None:
    with _LOCK:
        _REGISTRY.pop(key, None)


def tag_adjacency(obj, revision: Optional[int] = None, owned: bool = True) -> int:
    """Tag ``obj`` (dense array or CSR matrix) with a revision id.

    Parameters
    ----------
    obj:
        The adjacency structure.  Must support weak references (NumPy arrays
        and :class:`repro.sparse.CSRMatrix` both do).
    revision:
        Explicit revision to assign; a fresh one is drawn when omitted.
    owned:
        ``True`` when the caller owns ``obj`` and guarantees it is never
        mutated while tagged (the :class:`Graph` / perturbation contract).
        Unowned tags are refreshed by :func:`ensure_revision` on re-entry.
    """
    key = id(obj)
    if revision is None:
        revision = next_revision()
    with _LOCK:
        fresh = key not in _REGISTRY
        _REGISTRY[key] = (int(revision), bool(owned))
    if fresh:
        # Register cleanup once per object; re-tagging reuses the finalizer.
        weakref.finalize(obj, _evict, key)
    return int(revision)


def adjacency_revision(obj) -> Optional[int]:
    """The revision currently tagged on ``obj``, or ``None`` when untagged."""
    with _LOCK:
        entry = _REGISTRY.get(id(obj))
    return None if entry is None else entry[0]


def ensure_revision(obj) -> int:
    """Return a revision for ``obj``, suitable for scoping a training run.

    Owned tags (assigned by :class:`Graph` or a perturbation producer) are
    returned unchanged.  Untagged objects and objects carrying an unowned
    session tag get a *fresh* revision: the caller cannot prove the array was
    not mutated since the previous tag, so refreshing guarantees the operator
    cache can never serve a stale normalisation at the cost of one rebuild.
    """
    key = id(obj)
    with _LOCK:
        entry = _REGISTRY.get(key)
        if entry is not None and entry[1]:
            return entry[0]
    return tag_adjacency(obj, owned=False)
