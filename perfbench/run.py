"""Benchmark of the geotrellis_ray engine on one host.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tile_join --seed 1 --seconds 30 --trace 0

``BENCHMARK.json`` gates ``tile_join`` and ``crawl_join``. ``flagship``,
``curation`` and ``layer_store`` run in every traced sweep and can be run
on their own, but their run-to-run spread on a shared 4-CPU host under
Ray's default worker pool (flagship docs/s: 0.09 to 0.34 of the median
over ten seeds; bbox latency 42% and curation walls 47% over five) is
wider than any useful bound.

One run starts a fresh local Ray session (4 CPUs, 1 GB object store, every
other setting at Ray's default, as in ``geotrellis_ray/run.py``), makes the
workload's inputs from ``--seed``, runs one warm round, then a single
closed-loop client issues the workload's operations for ``--seconds``
seconds. Every output is checked against a reference computed outside the
timed window; a failed check, an exception or a timeout counts as a failed
operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (medians over the timed operations):

- ``docs_per_s``: input docs over the median pass wall (``layer_store``: the
  layer write).
- ``cpu_ms_per_doc``: utime+stime of the process tree (this process, raylet,
  workers) per doc, median over the same operations.
- ``setup_s``: input generation, Ray start and the warm round.

The line before it is a JSON report with every metric's sample count and
the extras: ``store_peak_mb`` (peak Ray object-store use of an operation,
sampled at 10 Hz, median over the same operations; it moves in steps of a
block, too coarse to gate), bbox and lookup p50 and tail latency, the
failed fraction, each operation's wall, the processes each operation
started (Ray worker starts, actor pools included) and the host diagnostics
(steal and external load of the timed window). ``--trace 1`` runs the
traced sweep of ``perfbench/traced.py`` instead and prints the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

NUM_CPUS = 4
OBJECT_STORE_BYTES = 1_000_000_000
# Ray's unix socket paths must fit 107 bytes under the session directory
MAX_RAY_TMP_LEN = 40


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("flagship", "curation", "layer_store", "tile_join", "crawl_join"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values: list[float]) -> tuple[float | None, int | None]:
    """Highest whole percentile with at least ten samples beyond it, and
    its value; (None, None) below 20 samples, where it would not lie above
    the median."""
    n = len(values)
    if n < 20:
        return None, None
    import numpy as np

    pct = int(100 * (1 - 10 / n))
    return float(np.percentile(values, pct)), pct


class Sample:
    def __init__(self, kind: str, docs: int):
        self.kind = kind
        self.docs = docs
        self.ok = False
        self.window = None


class Runner:
    """Owns the Ray session, the work directory and the timed loop."""

    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.work = os.path.join(self.root, ".bench_work", f"{args.workload}-{os.getpid()}")
        self.ray_tmp = os.path.join(self.root, ".bench_ray")
        self.pool = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        self.errors: list[str] = []

    def start_ray(self) -> None:
        import logging

        import ray

        kwargs = {}
        if len(self.ray_tmp) <= MAX_RAY_TMP_LEN:
            kwargs["_temp_dir"] = self.ray_tmp
        ray.init(address="local", num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR", **kwargs)
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def setup(self):
        from perfbench.workloads import WORKLOADS

        t0 = time.perf_counter()
        w = WORKLOADS[self.args.workload](self.args.seed, self.work)
        os.makedirs(self.work, exist_ok=True)
        w.prepare()
        self.start_ray()
        w.start()
        w.warm()
        return w, time.perf_counter() - t0

    def call(self, fn, timeout_s: float):
        """fn() on the loop's worker thread; raises TimeoutError if it has
        not returned within timeout_s."""
        return self.pool.submit(fn).result(timeout=timeout_s)

    def timed_loop(self, w) -> tuple[list[Sample], bool]:
        from perfbench.probes import Window

        samples: list[Sample] = []
        deadline = time.perf_counter() + self.args.seconds
        for op in w.timed_ops(deadline):
            s = Sample(op.kind, op.docs)
            samples.append(s)
            try:
                with Window() as s.window:
                    out = self.call(op.run, op.timeout_s)
            except concurrent.futures.TimeoutError:
                self.errors.append(f"{op.kind}: no result within {op.timeout_s} s")
                return samples, True
            except Exception:  # a failed operation is counted, not fatal
                self.errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
                continue
            err = op.check(out)
            if err:
                self.errors.append(f"{op.kind}: {err}")
            s.ok = err is None
        return samples, False

    def stop_ray(self, wedged: bool) -> None:
        """ray.shutdown(), then wait until every process this run started
        has ended, killing what is left after a grace period."""
        from perfbench.probes import live_children

        import ray

        if not wedged:
            try:
                self.call(ray.shutdown, 60)
            except concurrent.futures.TimeoutError:
                self.errors.append("ray.shutdown: no return within 60 s")
        grace = time.monotonic() + (5 if wedged else 20)
        killed = False
        while True:
            left = live_children(os.getpid())
            if not left:
                return
            if killed and time.monotonic() > grace + 10:
                self.errors.append(f"processes still running after SIGKILL: {sorted(left)}")
                return
            if not killed and time.monotonic() > grace:
                for pid in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                killed = True
            time.sleep(0.2)

    def cleanup(self, failed: bool) -> None:
        if failed:  # keep the Ray logs of a failed run for diagnosis
            logs = os.path.join(self.ray_tmp, "session_latest", "logs")
            keep = os.path.join(self.root, ".bench_out",
                                f"ray-logs-{self.args.workload}-{self.args.seed}-{os.getpid()}")
            if os.path.isdir(logs):
                shutil.copytree(logs, keep, dirs_exist_ok=True,
                                ignore=shutil.ignore_patterns("*.log.*"))
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)
        try:  # other runs may share the parent
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def end_to_end(w, samples: list[Sample], setup_s: float) -> tuple[dict, dict]:
    """(metrics, report) of an untraced run."""
    ok = [s for s in samples if s.ok]

    def walls(kind):
        return [s.window.wall_s for s in ok if s.kind == kind]

    doc_ops = [s for s in ok if s.kind == w.docs_kind]
    if not doc_ops:
        raise RuntimeError("no successful operation to measure")
    timed = [s for s in samples if s.window is not None]
    metrics = {
        "docs_per_s": (w.n / statistics.median(walls(w.docs_kind)), "docs/s"),
        "cpu_ms_per_doc": (1000 * statistics.median(s.window.cpu_s / s.docs for s in doc_ops), "ms"),
        "setup_s": (setup_s, "s"),
    }
    report = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    report["store_peak_mb"] = {
        "value": statistics.median(s.window.store_peak_mb for s in doc_ops), "unit": "MB"}
    for name in ("docs_per_s", "cpu_ms_per_doc", "store_peak_mb"):
        report[name]["samples"] = len(doc_ops)
    report["walls_ms"] = {kind: [round(1000 * s.window.wall_s, 1) for s in ok if s.kind == kind]
                          for kind in dict.fromkeys(s.kind for s in ok)}
    report["procs_started"] = {kind: [s.window.procs_started for s in ok if s.kind == kind]
                               for kind in dict.fromkeys(s.kind for s in ok)}
    for kind in ("bbox", "lookup"):
        ms = [1000 * v for v in walls(kind)]
        if ms:
            t, pct = tail(ms)
            report[f"{kind}_p50_ms"] = {"value": statistics.median(ms), "unit": "ms",
                                        "samples": len(ms)}
            report[f"{kind}_tail_ms"] = {"value": t, "unit": "ms", "percentile": pct,
                                         "samples": len(ms)}
    wall = sum(s.window.wall_s for s in timed)
    report["failed_frac"] = {"value": (len(samples) - len(ok)) / max(len(samples), 1),
                             "unit": "ratio", "samples": len(samples)}
    report["host.steal_s"] = {"value": sum(s.window.steal_s for s in timed), "unit": "s"}
    report["host.ext_load_frac"] = {
        "value": sum(s.window.ext_load_frac * s.window.wall_s for s in timed) / max(wall, 1e-9),
        "unit": "ratio"}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, report


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.getcwd())
    try:
        import bench  # noqa: F401
        import geotrellis_ray  # noqa: F401
        import ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {os.getcwd()}: {e}", file=sys.stderr)
        return 2
    # Ray and its workers write to stdout; keep the real stdout for the result
    result_fd = os.dup(1)
    os.dup2(2, 1)
    runner = Runner(args)
    wedged = False
    failed = 1
    try:
        w, setup_s = runner.setup()
        if args.trace:
            from perfbench.traced import traced_run

            attempted, failed, metrics, report = traced_run(runner, w, setup_s)
        else:
            samples, wedged = runner.timed_loop(w)
            metrics, report = end_to_end(w, samples, setup_s)
            attempted, failed = len(samples), sum(not s.ok for s in samples)
    finally:
        runner.stop_ray(wedged)
        runner.cleanup(failed > 0 or bool(runner.errors))
    for e in runner.errors:
        print(f"perfbench: {e}", file=sys.stderr)
    out = os.fdopen(result_fd, "w")
    report = {"workload": args.workload, "seed": args.seed, "num_cpus": NUM_CPUS,
              "window_docs": w.n, "report": report}
    out.write(json.dumps(report) + "\n")
    out.write(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}) + "\n")
    out.flush()
    if wedged:
        # the loop's worker thread is stuck inside Ray; do not wait for it
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
