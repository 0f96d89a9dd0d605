"""Broadcast helper: a small table/object ships to every actor ONCE via
``ray.put`` (object-store shared memory), never per batch (SURVEY.md §4
"Broadcast"). Actors call :func:`get` in ``__init__``."""

from __future__ import annotations

from typing import Any


def get(ref_or_obj: Any) -> Any:
    """Resolve a broadcast handle; passes plain objects through so stages can
    be unit-tested without a Ray session."""
    try:
        import ray

        if isinstance(ref_or_obj, ray.ObjectRef):
            return ray.get(ref_or_obj)
    except ImportError:
        pass
    return ref_or_obj
