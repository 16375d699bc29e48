"""Workload plans: what each perfbench workload runs, derived from ``--seed``.

A plan is a JSON-ready dict that ``run.py`` hands to every ``op.py``
child, so the orchestrator and the measuring processes agree on one
definition.  ``smoke=True`` keeps every layer of a workload but shrinks
its inputs to toy sizes.
"""

from __future__ import annotations

WORKLOADS = ("pagerank-heavy", "triangles", "pagerank-200k-process", "serve-mix")

#: Machine count of every workload (the paper's k).
K = 8


def _rmat(n: int, seed: int) -> str:
    return f"rmat:n={n},avg_deg=16,seed={seed}"


def plan(name: str, seed: int, smoke: bool = False) -> dict:
    """The inputs of workload ``name`` for ``seed`` (see README.md)."""
    if name == "pagerank-heavy":
        return _batch(name, _rmat(1000 if smoke else 5000, seed), "pagerank",
                      [2 * seed, 2 * seed + 1], engine="vector", workers=None,
                      params={})
    if name == "triangles":
        return _batch(name, _rmat(1000 if smoke else 10000, seed), "triangles",
                      [seed], engine="vector", workers=None, params={})
    if name == "pagerank-200k-process":
        return _batch(name, _rmat(5000 if smoke else 200_000, seed), "pagerank",
                      [3 * seed + 1, 3 * seed + 2, 3 * seed + 3],
                      engine="process", workers=1,
                      params={"c": 0.05, "enable_heavy_path": False})
    if name == "serve-mix":
        # One connectivity miss to two MST misses: the latencies of the two
        # families form two clusters, and with as many of each the median
        # would fall in the gap between them.
        misses = [
            {"algo": ("connectivity", "mst", "mst")[i % 3], "seed": 10 * seed + i}
            for i in range(6)
        ]
        return {
            "name": name,
            "kind": "serve",
            "dataset": _rmat(1000 if smoke else 15000, seed),
            "k": K,
            "engine": "vector",
            "misses": misses,
            "hits": 50 if smoke else 500,
            # Placements the warm-up pass writes shard snapshots for; the
            # placement depends on the seed alone, so one light-regime
            # iteration is enough.
            "warm": [{"seed": m["seed"], "engine": "vector", "workers": None,
                      "params": {"c": 0.05, "enable_heavy_path": False}}
                     for m in misses],
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def _batch(name, dataset, algo, seeds, *, engine, workers, params) -> dict:
    runs = [
        {"algo": algo, "seed": s, "engine": engine, "workers": workers,
         "params": dict(params)}
        for s in seeds
    ]
    return {
        "name": name,
        "kind": "batch",
        "dataset": dataset,
        "k": K,
        "runs": runs,
        # The warm-up pass and the probes run a one-iteration PageRank per
        # placement (placement depends only on the run seed and k).
        "warm": runs,
    }
