"""Independent output checks for the perfbench workloads.

Every check recomputes the answer from the input graph with ``scipy``
(or checks a property of the output directly); none calls the repo's own
reference implementations.  Each returns a list of failure messages,
empty when the output is correct.  :func:`self_test` shows that every
check fails on a corrupted output.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

#: Reset probability of the PageRank runs (the family default).
EPS = 0.15


def adjacency(graph) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of an undirected graph, from its edge list."""
    e = np.asarray(graph.edges, dtype=np.int64)
    n = graph.n
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    data = np.ones(rows.size, dtype=np.int64)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def walk_series(graph, eps: float = EPS, rtol: float = 1e-10) -> np.ndarray:
    """Random-walk-with-reset PageRank with absorbing dangling vertices.

    ``pi = (eps/n) * 1^T sum_j ((1-eps) P)^j`` with ``P`` the row-stochastic
    walk matrix; a walk at a degree-0 vertex ends.  Summed until the mass
    still walking is below ``rtol`` of the start.
    """
    a = adjacency(graph).astype(np.float64)
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    pt = (sp.diags(inv) @ a).T.tocsr()
    x = np.ones(graph.n, dtype=np.float64)
    acc = x.copy()
    while x.sum() > rtol * graph.n:
        x = (1.0 - eps) * (pt @ x)
        acc += x
    return eps * acc / graph.n


def pagerank_tolerance(tokens_per_vertex: int, eps: float = EPS) -> float:
    """L1 tolerance of a token-walk estimate with ``T0`` tokens per vertex.

    Visit counts are near-Poisson, so the expected L1 error is about
    ``sqrt(2/pi) * sqrt(eps / (n T0)) * sum_v sqrt(pi_v)``; Cauchy-Schwarz
    bounds the sum by ``sqrt(n)``.  ``sqrt(eps / T0)`` adds a 1.25x margin
    for revisits: 0.026 at T0=229 and 0.39 at T0=1, where a uniform vector
    scores about 0.8 and 0.7.
    """
    return math.sqrt(eps / max(1, int(tokens_per_vertex)))


def check_pagerank(reference: np.ndarray, estimates, tokens_per_vertex: int) -> list[str]:
    est = np.asarray(estimates, dtype=np.float64)
    if est.shape != reference.shape:
        return [f"pagerank: {est.shape} estimates for {reference.shape[0]} vertices"]
    l1 = float(np.abs(est - reference).sum())
    tol = pagerank_tolerance(tokens_per_vertex)
    if not l1 <= tol:
        return [f"pagerank: L1 distance {l1:.4f} to the walk series exceeds {tol:.4f}"]
    return []


def triangle_count(graph, block: int = 4096) -> int:
    """``(A @ A) .* A`` summed over all entries, / 6, in row blocks."""
    a = adjacency(graph)
    total = 0
    for lo in range(0, graph.n, block):
        rows = a[lo:lo + block]
        total += int((rows @ a).multiply(rows).sum())
    return total // 6


def check_triangles(graph, triangles, expected: int) -> list[str]:
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    errors = []
    if t.shape[0] != expected:
        errors.append(f"triangles: {t.shape[0]} rows, (A@A).*A counts {expected}")
    if t.size == 0:
        return errors
    if not (np.all(t[:, 0] < t[:, 1]) and np.all(t[:, 1] < t[:, 2])):
        errors.append("triangles: a row is not a strictly increasing triple")
    n = np.int64(graph.n)
    e = np.asarray(graph.edges, dtype=np.int64)
    keys = np.sort(e[:, 0] * n + e[:, 1])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        probe = t[:, i] * n + t[:, j]
        pos = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
        if not np.all(keys[pos] == probe):
            errors.append("triangles: a row uses a pair that is not an edge")
            break
    if np.unique(t, axis=0).shape[0] != t.shape[0]:
        errors.append("triangles: a triangle appears twice")
    return errors


def mst_weights(graph, seed: int) -> np.ndarray:
    """The edge weights the MST family draws from its run seed."""
    return np.random.default_rng(seed).random(graph.m)


def mst_reference(graph, weights) -> tuple[float, int]:
    """``(total weight, forest edges)`` of the minimum spanning forest."""
    e = np.asarray(graph.edges, dtype=np.int64)
    w = sp.csr_matrix((weights, (e[:, 0], e[:, 1])), shape=(graph.n, graph.n))
    forest = minimum_spanning_tree(w)
    return float(forest.sum()), int(forest.nnz)


def check_mst(reference: tuple[float, int], total_weight: float,
              forest_edges: int, atol: float = 1e-9) -> list[str]:
    ref_weight, ref_edges = reference
    errors = []
    if abs(float(total_weight) - ref_weight) > atol + 1e-12 * abs(ref_weight):
        errors.append(f"mst: total weight {total_weight} != scipy {ref_weight:.6f}")
    if int(forest_edges) != ref_edges:
        errors.append(f"mst: {forest_edges} forest edges != scipy {ref_edges}")
    return errors


def component_count(graph) -> int:
    return int(connected_components(adjacency(graph), directed=False)[0])


def check_connectivity(expected: int, num_components: int) -> list[str]:
    if int(num_components) != expected:
        return [f"connectivity: {num_components} components != scipy {expected}"]
    return []


def self_test(graph, outputs: dict) -> list[str]:
    """Corrupt real program outputs and confirm every check rejects them.

    ``outputs`` holds the program's outputs on ``graph``: ``pagerank``
    (estimates, T0), ``triangles`` (rows), ``mst`` (forest edge rows,
    weights) and ``components``.  Returns messages for each check that
    failed on the true output or passed a corrupted one.
    """
    problems = []

    def expect(name, clean, corrupted):
        if clean:
            problems.append(f"self-test: {name} rejects the true output: {clean}")
        if not corrupted:
            problems.append(f"self-test: {name} accepts a corrupted output")

    est, tokens = outputs["pagerank"]
    ref = walk_series(graph)
    uniform = np.full(graph.n, 1.0 / graph.n)
    expect("pagerank", check_pagerank(ref, est, tokens),
           check_pagerank(ref, uniform, tokens))

    rows = np.asarray(outputs["triangles"])
    count = triangle_count(graph)
    expect("triangles", check_triangles(graph, rows, count),
           check_triangles(graph, rows[1:], count))

    forest, weights = outputs["mst"]
    e = np.asarray(graph.edges, dtype=np.int64)
    edge_id = {(int(u), int(v)): i for i, (u, v) in enumerate(e)}
    ids = np.array([edge_id[(int(u), int(v))] for u, v in forest], dtype=np.int64)
    outside = np.setdiff1d(np.arange(graph.m), ids)
    swapped = ids.copy()
    swapped[0] = outside[0]  # one forest edge replaced by a non-forest edge
    mref = mst_reference(graph, weights)
    expect("mst", check_mst(mref, weights[ids].sum(), ids.size),
           check_mst(mref, weights[swapped].sum(), swapped.size))

    comps = component_count(graph)
    expect("connectivity", check_connectivity(comps, outputs["components"]),
           check_connectivity(comps, outputs["components"] + 1))
    return problems
