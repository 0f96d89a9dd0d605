"""Actor-pool sizing: the engine's one read of the cluster's CPU count and
its one rule for how many actors a stateful stage gets. Every
``map_batches(Class, concurrency=...)`` in the package passes
``actor_pool_size(...)`` (``tests/test_pool_entry_point.py`` fails on any
other value)."""

from __future__ import annotations


def cluster_cpus() -> int:
    """CPUs of the Ray cluster; 8 when no Ray session is up (unit tests and
    plans built before ``ray.init``)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def actor_pool_size(cpus_per_actor: int = 4) -> int:
    """Actors for a stateful stage: one per ``cpus_per_actor`` CPUs, at least
    2, and never every CPU (a pool of all cpus x 1-cpu actors starves the
    tasks that feed and drain it).

    The default 4 is the PIP probe's measured share: it takes ~1/4 of the
    flagship's CPU, and larger pools starve the enrich task stages (8 actors
    beat 16 and 30 on a 32-cpu node). The hashed-n-gram scorer dominates the
    curation chain and takes ``cpus_per_actor=2`` (2.2x over a fixed pool of
    2 at 200k docs)."""
    cpus = cluster_cpus()
    return min(max(2, cpus // cpus_per_actor), max(1, cpus - 1))
