"""Host-side measurement: CPU of the benchmark's process tree, host load from
``/proc/stat``, and the Ray object-store fill.

The process-tree CPU tracker and the host-busy reading are the ones
``bench.py`` uses, so both benchmarks count CPU the same way; this module
adds the steal reading, the processes started in a window and the
object-store sampling. Nothing here reaches into ``geotrellis_ray``. One
:class:`Window` wraps one timed operation (a pass, a query) and yields its
wall time, tree CPU, object-store peak, the processes the tree started and
the host diagnostics (steal and external load) of the same interval.
"""

from __future__ import annotations

import os
import time

from bench import _CLK, _NCPU_HOST, _host_busy, _proc_descendants, _TreeCpuTracker


def _state(pid: int) -> str | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


def live_children(root: int) -> set[int]:
    """Descendants of ``root`` that have not exited. Exited direct children
    are reaped here, so they leave the process table."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break
    return {pid for pid in _proc_descendants(root) - {root} if _state(pid) not in (None, "Z")}


def host_steal() -> int:
    """Steal jiffies of the whole host since boot: time other guests took."""
    with open("/proc/stat") as f:
        vals = f.readline().split()[1:]
    return int(vals[7]) if len(vals) > 7 else 0


class TreeCpu(_TreeCpuTracker):
    """``bench.py``'s 10 Hz process-tree CPU tracker, also sampling the
    object store at each tick."""

    def __init__(self, store: "StorePeak"):
        super().__init__()
        self._store = store

    def _run(self):
        while not self._stop.wait(0.1):
            self._sample(self._seen)
            self._store.sample()

    def started(self) -> int:
        """Processes that joined the tree inside the window: Ray worker
        starts, actor pools included."""
        return len(self._seen.keys() - self._base.keys())


class StorePeak:
    """Peak bytes held in the Ray object store, sampled from this process
    (total minus available ``object_store_memory``)."""

    def __init__(self):
        import ray

        self._ray = ray
        self.total = ray.cluster_resources().get("object_store_memory", 0.0)
        self.peak = 0.0

    def used(self) -> float:
        avail = self._ray.available_resources().get("object_store_memory", self.total)
        return max(0.0, self.total - avail)

    def sample(self) -> None:
        self.peak = max(self.peak, self.used())


class Window:
    """One timed interval: wall, tree CPU, object-store peak, processes
    started, host steal and external load (host busy CPU, steal included,
    minus the tree's own)."""

    def __init__(self):
        self._store = StorePeak()
        self.wall_s = self.cpu_s = self.steal_s = self.ext_load_frac = 0.0
        self.store_peak_mb = 0.0
        self.procs_started = 0

    def __enter__(self) -> "Window":
        self._store.sample()
        self._cpu = TreeCpu(self._store).__enter__()
        self._busy0, self._steal0 = _host_busy(), host_steal()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        busy1, steal1 = _host_busy(), host_steal()
        self._cpu.__exit__(*exc)
        self.cpu_s = self._cpu.jiffies() / _CLK
        self.procs_started = self._cpu.started()
        self.steal_s = (steal1 - self._steal0) / _CLK
        ext = (busy1 - self._busy0) / _CLK - self.cpu_s
        self.ext_load_frac = max(0.0, ext) / (max(self.wall_s, 1e-6) * _NCPU_HOST)
        self._store.sample()
        self.store_peak_mb = self._store.peak / 1e6
