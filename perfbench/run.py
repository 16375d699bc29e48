"""The repo's end-to-end benchmark: one workload, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pagerank-heavy --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --smoke     # every workload and check, toy sizes

Each step runs in a fresh ``op.py`` process so that every timed step is
a warm start from the on-disk cache, not a reuse of in-process caches:

1. ``prepare`` (untimed) builds the dataset and its shard snapshots in
   ``perfbench/.data`` (``$REPRO_DATA_DIR``), memoizes the independent
   check references, makes one warm-up pass and self-tests the checks;
2. three ``probe`` processes measure set-up; ``setup_s`` is their median;
3. ``op`` processes repeat the workload's fixed work until ``--seconds``
   have passed (at least once); time metrics are medians over them;
4. with ``--trace 1`` three traced ops, each followed by an untraced one,
   give the per-layer metrics (from the first traced op) and the tracing
   overhead (median traced/untraced ratio of the pairs); they are printed
   instead of the end-to-end ones.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from suite import WORKLOADS, plan as make_plan  # noqa: E402

ROOT = HERE.parent
DATA_DIR = HERE / ".data"
PROBES = 3
#: Traced ops of a ``--trace 1`` run, each paired with an untraced op.
TRACED_PAIRS = 3
#: Seconds one child step may take before the run is abandoned.
STEP_TIMEOUT = 170.0


class StepFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_DATA_DIR"] = str(DATA_DIR)
    return env


def step(mode: str, plan: dict, trace: bool = False) -> dict:
    """Run one ``op.py`` step in a fresh process and return its JSON."""
    cfg = json.dumps({"mode": mode, "plan": plan, "trace": trace})
    # A session of its own, so that a step that hangs is stopped together
    # with the daemon or pool workers it started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "op.py"), cfg], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=STEP_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise StepFailed(f"{mode} step of {plan['name']} timed out") from exc
    if proc.returncode != 0:
        raise StepFailed(
            f"{mode} step of {plan['name']} exited {proc.returncode}:\n{err[-4000:]}"
        )
    if err.strip():
        sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(probes: list[dict], ops: list[dict]) -> dict:
    misses = [ms for op in ops for ms in op["miss_ms"]]
    values = {
        "wall_s": median([op["wall_s"] for op in ops]),
        "setup_s": median([p["setup_s"] for p in probes]),
        "peak_rss_mb": median([op["peak_rss_mb"] for op in ops]),
        "rounds": median([op["rounds"] for op in ops]),
        "bits": median([op["bits"] for op in ops]),
        "req_per_s": median([len(op["miss_ms"]) + len(op.get("hit_ms", ()))
                             for op in ops]) / median([op["request_window_s"] for op in ops]),
        "miss_p50_ms": median(misses),
    }
    return _with_units(values, "end_to_end")


def _with_units(values: dict, kind: str) -> dict:
    """``values`` as ``{name: {value, unit}}``, named and ordered as the
    ``end_to_end`` or ``per_layer`` list of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise StepFailed(f"{kind} metrics {sorted(set(units) ^ set(values))} "
                         f"differ between BENCHMARK.json and run.py")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _segment(groups, name, pick=lambda g: True) -> float:
    return sum(g["segments"].get(name, 0.0) for g in groups if pick(g))


def per_layer(probes: list[dict], untraced: list[dict],
              pairs: list[tuple[dict, dict]]) -> dict:
    traced = pairs[0][0]
    s = traced["summary"]
    groups = s["groups"]
    label = lambda g: g["label"] or ""  # noqa: E731

    def is_pagerank(g):
        return label(g).startswith("pagerank/") or "tokens" in label(g)

    def is_triangles(g):
        return label(g).startswith("triangles/") or label(g) in (
            "_enumerate_triangles_task", "_draw_edge_proxies_task")

    def is_mst(g):
        return label(g).startswith("mst/") or "mwoe" in label(g)

    maps = [g for g in groups if g["op"] == "map_machines"]
    kernel_busy = _segment(maps, "kernel_s")
    workers = traced.get("workers") or 0
    map_wall = sum(g["wall_s"] - g["driver_s"] for g in maps)
    op = untraced[-1]
    hits = [ms for o in untraced for ms in o.get("hit_ms", ())]
    status = op.get("status") or {}
    store = status.get("result_store") or {}
    uncovered = 0.0
    if s["run_wall_s"] is not None:
        uncovered = s["run_wall_s"] - (s["setup_s"] or 0.0) - s["phase_wall_s"]

    def med(key):
        xs = [x for o in untraced for x in o.get(key, ())]
        return median(xs) if xs else 0.0

    values = {
        "workloads.materialize_s": median([p.get("materialize_s", 0.0) for p in probes]),
        "runtime.first_superstep_s": median(
            [p.get("first_superstep_s", 0.0) for p in probes]),
        "pagerank.kernel_s": _segment(maps, "kernel_s", is_pagerank),
        "pagerank.driver_s": sum(g["driver_s"] for g in groups if is_pagerank(g)),
        "pagerank.iterations": traced.get("pagerank_iterations", 0),
        "triangles.enumerate_kernel_s": _segment(
            maps, "kernel_s", lambda g: label(g) == "_enumerate_triangles_task"),
        "triangles.proxy_kernel_s": _segment(
            maps, "kernel_s", lambda g: label(g) == "_draw_edge_proxies_task"),
        "triangles.driver_s": sum(g["driver_s"] for g in groups if is_triangles(g)),
        "engine.pack_s": _segment(groups, "pack_s"),
        "engine.account_s": _segment(groups, "account_s"),
        "engine.deliver_s": _segment(groups, "deliver_s"),
        "engine.account_phase_s": sum(
            g["wall_s"] for g in groups if g["op"] == "account_phase"),
        "engine.phases": sum(g["count"] for g in groups),
        "engine.messages": sum(g["messages"] for g in groups),
        "parallel.ship_s": _segment(maps, "ship_s"),
        "parallel.unpack_s": _segment(maps, "unpack_s"),
        "parallel.pool_wait_s": _segment(maps, "pool_wait_s"),
        "parallel.assemble_s": _segment(maps, "assemble_s"),
        "parallel.resident_install_s": sum(
            g["wall_s"] for g in groups if g["op"] == "resident" and label(g) == "install"),
        "parallel.resident_pull_s": sum(
            g["wall_s"] for g in groups if g["op"] == "resident" and label(g) == "pull"),
        "parallel.kernel_busy_s": kernel_busy,
        "parallel.worker_busy_ratio": (
            kernel_busy / (workers * map_wall) if workers and map_wall > 0 else 0.0),
        "parallel.worker_peak_rss_mb": traced["worker_peak_rss_mb"],
        "mst.kernel_s": _segment(maps, "kernel_s", is_mst),
        "mst.driver_s": sum(g["driver_s"] for g in groups if is_mst(g)),
        "serve.hit_p50_ms": median(hits) if hits else 0.0,
        "serve.hit_p99_ms": (quantiles(hits, n=100, method="inclusive")[98]
                             if len(hits) >= 1000 else 0.0),
        "serve.hit_server_ms": med("hit_server_ms"),
        "serve.hit_transport_ms": med("hit_transport_ms"),
        "serve.miss_run_s": med("miss_run_s"),
        "serve.miss_queue_ms": med("miss_queue_ms"),
        "serve.cache_hits": status.get("cache_hits", 0),
        "serve.executed": status.get("executed", 0),
        "serve.store_hits": store.get("hits", 0),
        "serve.store_misses": store.get("misses", 0),
        "runtime.uncovered_s": uncovered,
        "process.cpu_s": median([o["cpu_s"] for o in untraced]),
        "obs.coverage": s["coverage"] or 0.0,
        "obs.trace_overhead_ratio": median([t["wall_s"] / u["wall_s"] for t, u in pairs]),
    }
    return _with_units(values, "per_layer")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    plan = make_plan(name, seed, smoke)
    repeats = 1 if smoke else None
    prep = step("prepare", plan)
    errors = list(prep["self_test"])
    probes = [step("probe", plan) for _ in range(repeats or PROBES)]
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(step("op", plan))
    metrics = end_to_end(probes, ops)
    ops_checked = ops
    if trace:
        # Each traced op is followed by an untraced one; the overhead is
        # the median of those pairs' ratios, so host drift cancels.
        pairs = [(step("op", plan, trace=True), step("op", plan))
                 for _ in range(repeats or TRACED_PAIRS)]
        ops_checked = ops + [op for pair in pairs for op in pair]
        metrics = per_layer(probes, ops + [u for _, u in pairs], pairs)
    for op in ops_checked:
        errors += op["errors"]
    for message in errors:
        print(f"CHECK FAILED [{name}]: {message}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(op["attempted"] for op in ops_checked),
        "failed": sum(op["failed"] for op in ops_checked),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and check on toy sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or pass --smoke)")
    try:
        if args.smoke:
            # A traced run takes every path: a probe, untraced ops (the
            # end-to-end metrics) and a traced op (the per-layer ones).
            results = {name: run_workload(name, args.seed, 0.0, trace=True, smoke=True)
                       for name in WORKLOADS}
            for name, result in results.items():
                print(f"{name}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
            ok = all(r["correct"] and not r["failed"] for r in results.values())
            print(json.dumps({"smoke_ok": ok}))
            return 0 if ok else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except StepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
