"""One measured step of a perfbench workload, in a fresh process.

``python3 perfbench/op.py '<json>'`` with ``{"mode", "plan", "trace"}``:

* ``prepare`` — untimed: materialize the dataset into the benchmark's
  data directory, memoize the check references, write the shard
  snapshots of every placement the workload uses (one short run each),
  and run the checks' self-test;
* ``probe`` — one warm start: process start to the first superstep (or,
  for ``serve``, daemon spawn to its first answered request);
* ``op`` — the workload's fixed work, timed, then checked.  With
  ``trace`` the runs are traced and the per-layer numbers are derived
  from ``repro.obs.summarize_trace``.

The last stdout line is one JSON object.  The program is driven only
through ``repro.workloads.materialize``, ``repro.runtime.run``,
``python -m repro serve`` with ``ServeClient``, and the trace option.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import socket  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def data_dir() -> Path:
    return Path(os.environ["REPRO_DATA_DIR"])


def memo(name: str, compute, kind: str = "json"):
    """A check reference, computed once and kept in the data directory."""
    path = data_dir() / "perfbench-ref" / f"{name}.{kind}"
    if path.exists():
        if kind == "npy":
            import numpy as np

            return np.load(path)
        return json.loads(path.read_text())
    value = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    if kind == "npy":
        import numpy as np

        with open(tmp, "wb") as fh:
            np.save(fh, value)
    else:
        tmp.write_text(json.dumps(value))
    os.replace(tmp, path)
    return value


# ---------------------------------------------------------------------------
# batch workloads (runtime.run in this process)


def run_kwargs(plan: dict, run: dict) -> dict:
    kw = {"k": plan["k"], "seed": run["seed"], "engine": run["engine"]}
    if run["workers"] is not None:
        kw["workers"] = run["workers"]
    kw.update(run["params"])
    return kw


def batch_probe(plan: dict) -> dict:
    from repro import runtime, workloads

    imported = time.perf_counter()
    graph = workloads.materialize(plan["dataset"])
    materialized = time.perf_counter()
    report = runtime.run("pagerank", graph, **run_kwargs(plan, plan["warm"][0]),
                         max_iterations=1)
    first = report.first_superstep_seconds
    from repro.kmachine.parallel import shutdown_worker_pools

    shutdown_worker_pools()
    return {
        "setup_s": materialized - T_START + first,
        "materialize_s": materialized - imported,
        "first_superstep_s": first,
    }


def batch_op(plan: dict, trace: bool) -> dict:
    import multiprocessing

    from repro import runtime, workloads
    from repro.kmachine.parallel import shutdown_worker_pools
    from repro.obs import Tracer, summarize_trace

    graph = workloads.materialize(plan["dataset"])
    tracer = Tracer() if trace else None
    runs, results, failed = [], [], 0
    for run in plan["runs"]:
        try:
            report = runtime.run(run["algo"], graph, trace=tracer,
                                 **run_kwargs(plan, run))
        except Exception as exc:  # noqa: BLE001 - a failed run is counted
            print(f"{run['algo']} seed={run['seed']} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        runs.append({
            "wall_s": report.wall_seconds,
            "rounds": report.rounds,
            "bits": report.metrics.bits,
            "workers": report.workers,
        })
        results.append((run, report.result))
    end = time.perf_counter()
    workers = [p.pid for p in multiprocessing.active_children()]
    worker_rss = sum(vm_hwm_mb(pid) for pid in workers)
    rss = vm_hwm_mb() + worker_rss
    shutdown_worker_pools()
    out = {
        "wall_s": end - T_START,
        "request_window_s": sum(r["wall_s"] for r in runs),
        "runs": runs,
        "miss_ms": [r["wall_s"] * 1e3 for r in runs],
        "attempted": len(plan["runs"]),
        "failed": failed,
        "rounds": sum(r["rounds"] for r in runs),
        "bits": sum(r["bits"] for r in runs),
        "peak_rss_mb": rss,
        "worker_peak_rss_mb": worker_rss,
        "cpu_s": cpu_seconds(),
        "errors": check_batch(plan, graph, results),
    }
    if trace:
        out["summary"] = summarize_trace(tracer.events)
        out["pagerank_iterations"] = sum(
            r.iterations for run, r in results if run["algo"] == "pagerank")
        out["workers"] = max([r["workers"] or 0 for r in runs], default=0)
    return out


def check_batch(plan: dict, graph, results) -> list[str]:
    import checks

    errors = []
    for run, result in results:
        if run["algo"] == "pagerank":
            ref = memo(f"walk-{graph.content_key}", lambda: checks.walk_series(graph), "npy")
            errors += checks.check_pagerank(ref, result.estimates, result.tokens_per_vertex)
        elif run["algo"] == "triangles":
            count = memo(f"triangles-{graph.content_key}",
                         lambda: checks.triangle_count(graph))
            errors += checks.check_triangles(graph, result.triangles, count)
    return errors


# ---------------------------------------------------------------------------
# serve workload (a daemon process plus this load generator)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemon:
    """``python -m repro serve`` in its own process, with its own result db."""

    def __init__(self, plan: dict, workdir: Path, trace_path: Path | None = None):
        from repro.serve import ServeClient

        self.port = free_port()
        self.log = open(workdir / "serve.log", "wb")
        env = dict(os.environ)
        env.pop("REPRO_TRACE", None)
        if trace_path is not None:
            env["REPRO_TRACE"] = str(trace_path)
        cmd = [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
               "--result-db", str(workdir / "results.sqlite"),
               "--prewarm", plan["dataset"]]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.client = ServeClient(port=self.port, timeout=120.0)
        try:
            self.client.wait_until_ready(deadline=60.0, interval=0.01)
        except Exception:
            self.stop()
            raise
        self.ready = time.perf_counter()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001 - fall through to terminate
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def serve_probe(plan: dict) -> dict:
    with tempfile.TemporaryDirectory(dir=data_dir()) as tmp:
        daemon = Daemon(plan, Path(tmp))
        daemon.stop()
    return {"setup_s": daemon.ready - daemon.spawned}


def serve_op(plan: dict, trace: bool) -> dict:
    from repro.errors import ServeError
    from repro.obs import read_trace, summarize_trace

    misses = plan["misses"]
    stored: dict[int, list] = {}
    miss_reports: list[tuple[int, dict, float]] = []
    hit_reports: list[tuple[int, dict, float]] = []
    failed = 0
    events: list[dict] = []

    def request(i):
        """Send request ``i`` of ``misses``; ``(i, report, latency_ms)``."""
        nonlocal failed
        m = misses[i]
        sent = time.perf_counter()
        try:
            report = daemon.client.run(m["algo"], dataset=plan["dataset"], k=plan["k"],
                                       seed=m["seed"], engine=plan["engine"])
        except ServeError as exc:
            print(f"request {m} failed: {exc}", file=sys.stderr)
            failed += 1
            return None
        return i, report, (time.perf_counter() - sent) * 1e3

    with tempfile.TemporaryDirectory(dir=data_dir()) as tmp:
        trace_path = Path(tmp) / "serve-trace.jsonl" if trace else None
        daemon = Daemon(plan, Path(tmp), trace_path)
        try:
            # One closed-loop client: each request is sent when the
            # previous one has been answered.
            first = time.perf_counter()
            for i in range(len(misses)):
                got = request(i)
                if got is None:
                    continue
                miss_reports.append(got)
                stored[i] = got[1].get("summary")
                if trace:
                    # $REPRO_TRACE reopens the file per run; read each
                    # miss's trace before the next request replaces it.
                    events.extend(read_trace(trace_path))
            for j in range(plan["hits"]):
                got = request(j % len(misses))
                if got is not None:
                    hit_reports.append(got)
            end = time.perf_counter()
            status = daemon.client.status()["session"]
            rss = vm_hwm_mb() + vm_hwm_mb(daemon.proc.pid)
        finally:
            daemon.stop()

    out = {
        "wall_s": end - daemon.spawned,
        "request_window_s": end - first,
        "requests": len(miss_reports) + len(hit_reports),
        "miss_ms": [lat for _, _, lat in miss_reports],
        "hit_ms": [lat for _, _, lat in hit_reports],
        "hit_server_ms": [r["elapsed_s"] * 1e3 for _, r, _ in hit_reports],
        "hit_transport_ms": [lat - r["elapsed_s"] * 1e3 for _, r, lat in hit_reports],
        "miss_run_s": [r["wall_seconds"] for _, r, _ in miss_reports],
        "miss_queue_ms": [(r["elapsed_s"] - r["wall_seconds"]) * 1e3
                          for _, r, _ in miss_reports],
        "attempted": len(misses) + plan["hits"],
        "failed": failed,
        "rounds": sum(r["rounds"] for _, r, _ in miss_reports),
        "bits": sum(r["bits"] for _, r, _ in miss_reports),
        "peak_rss_mb": rss,
        "worker_peak_rss_mb": 0.0,
        "cpu_s": cpu_seconds(),
        "status": status,
        "errors": check_serve(plan, miss_reports, hit_reports, stored, status),
    }
    if trace:
        out["summary"] = summarize_trace(events)
        out["workers"] = 0
    return out


def summary_value(summary: list, label: str):
    for row_label, value in summary or ():
        if row_label == label:
            return value
    raise KeyError(f"summary has no {label!r} row: {summary}")


def check_serve(plan, miss_reports, hit_reports, stored, status) -> list[str]:
    import checks
    from repro import workloads

    graph = workloads.materialize(plan["dataset"])
    errors = []
    for i, report, _ in miss_reports:
        m = plan["misses"][i]
        if report["cached"]:
            errors.append(f"serve: first request {m} was answered from the cache")
        summary = report.get("summary")
        if m["algo"] == "connectivity":
            expected = memo(f"components-{graph.content_key}",
                            lambda: checks.component_count(graph))
            errors += checks.check_connectivity(
                expected, summary_value(summary, "components"))
        else:
            ref = checks.mst_reference(graph, checks.mst_weights(graph, m["seed"]))
            # The summary prints the weight with four decimals.
            errors += checks.check_mst(
                ref, float(summary_value(summary, "total weight")),
                summary_value(summary, "forest edges"), atol=5.01e-5)
    for i, report, _ in hit_reports:
        if not report["cached"] or report.get("summary") != stored.get(i):
            errors.append(f"serve: repeat of {plan['misses'][i]} did not return "
                          f"the stored summary")
            break
    sent_misses, sent_hits = len(miss_reports), len(hit_reports)
    store = status.get("result_store") or {}
    for field, got, want in (
        ("requests", status.get("requests"), sent_misses + sent_hits),
        ("executed", status.get("executed"), sent_misses),
        ("cache_hits", status.get("cache_hits"), sent_hits),
        ("result_store.stores", store.get("stores"), sent_misses),
    ):
        if got != want:
            errors.append(f"serve: /status {field}={got}, {want} requests sent")
    return errors


# ---------------------------------------------------------------------------
# prepare


def prepare(plan: dict) -> dict:
    from repro import runtime, workloads

    import checks

    drop_shard_snapshots()
    graph = workloads.materialize(plan["dataset"])
    if plan["kind"] == "batch":
        if any(r["algo"] == "pagerank" for r in plan["runs"]):
            memo(f"walk-{graph.content_key}", lambda: checks.walk_series(graph), "npy")
        if any(r["algo"] == "triangles" for r in plan["runs"]):
            memo(f"triangles-{graph.content_key}", lambda: checks.triangle_count(graph))
    else:
        memo(f"components-{graph.content_key}", lambda: checks.component_count(graph))
    # Warm-up pass: one short run per placement writes its shard snapshot
    # and starts the worker pool once, so no timed step pays either.
    for warm in plan["warm"]:
        runtime.run("pagerank", graph, **run_kwargs(plan, warm), max_iterations=1)
    from repro.kmachine.parallel import shutdown_worker_pools

    shutdown_worker_pools()
    flush_new_files(T_START)
    return {"n": graph.n, "m": graph.m, "self_test": self_test()}


def drop_shard_snapshots() -> None:
    """Delete every shard snapshot in the data directory.

    The graph cache evicts whole datasets and never the one whose
    snapshot it is storing, so every new placement adds a snapshot for
    good (408 MB for a 1e6-vertex R-MAT at k=8) and other datasets are
    evicted instead.  Starting each prepare from the datasets alone keeps
    the directory at one seed's snapshots and every run's cache state
    the same.
    """
    for path in (data_dir() / "graphs").glob("*.shards-*"):
        path.unlink()


def flush_new_files(since: float) -> None:
    """fsync what this step wrote, so no timed step waits on its writeback."""
    cutoff = time.time() - (time.perf_counter() - since)
    for path in data_dir().rglob("*"):
        if path.is_file() and path.stat().st_mtime >= cutoff:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def self_test() -> list[str]:
    """Run the checks' self-test on real outputs of a small graph."""
    from repro import runtime, workloads

    import checks

    graph = workloads.materialize("rmat:n=600,avg_deg=8,seed=3")
    pr = runtime.run("pagerank", graph, k=4, seed=1, engine="vector").result
    tri = runtime.run("triangles", graph, k=4, seed=1, engine="vector").result
    mst = runtime.run("mst", graph, k=4, seed=2, engine="vector").result
    conn = runtime.run("connectivity", graph, k=4, seed=1, engine="vector").result
    return checks.self_test(graph, {
        "pagerank": (pr.estimates, pr.tokens_per_vertex),
        "triangles": tri.triangles,
        "mst": (mst.edges, checks.mst_weights(graph, 2)),
        "components": conn.num_components,
    })


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    Each workload's processes take turns (client and daemon, parent and
    pool worker), so one CPU is enough for the work; spread over two,
    every turn wakes a CPU the host may have given away, and the figures
    measured the host's steal (see README).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    pin_to_one_cpu()
    cfg = json.loads(sys.argv[1])
    plan, mode, trace = cfg["plan"], cfg["mode"], bool(cfg.get("trace"))
    serve = plan["kind"] == "serve"
    if mode == "prepare":
        out = prepare(plan)
    elif mode == "probe":
        out = serve_probe(plan) if serve else batch_probe(plan)
    elif mode == "op":
        out = serve_op(plan, trace) if serve else batch_op(plan, trace)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
