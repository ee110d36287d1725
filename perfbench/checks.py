"""Correctness oracles, each computed without the code under test.

A check returns ``None`` when the program's output is right and a short
message saying what differs when it is not.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path


def edge_set_digest(edges: np.ndarray) -> dict:
    """``store_digest`` of a store holding ``edges`` with weight 1.0.

    Same canonical form as the program's digest: edges lexsorted by
    ``(src, dst)``, then the int64 sources, int64 destinations and
    float64 weights hashed in that order.
    """
    edges = np.unique(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=0)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(edges[:, 0]).tobytes())
    h.update(np.ascontiguousarray(edges[:, 1]).tobytes())
    h.update(np.ones(edges.shape[0], dtype=np.float64).tobytes())
    return {"sha256": h.hexdigest(), "n_edges": int(edges.shape[0])}


def live_edges(inserts: np.ndarray, deletes: np.ndarray) -> np.ndarray:
    """Distinct edges of ``inserts`` not named in ``deletes`` (sorted)."""
    present = np.unique(inserts, axis=0)
    gone = np.unique(deletes, axis=0)
    shift = np.int64(32)
    keep = ~np.isin((present[:, 0] << shift) | present[:, 1],
                    (gone[:, 0] << shift) | gone[:, 1])
    return present[keep]


def check_digest(got: dict, want: dict, what: str) -> str | None:
    if got["n_edges"] != want["n_edges"]:
        return (f"{what}: store holds {got['n_edges']} edges, "
                f"expected {want['n_edges']}")
    if got["sha256"] != want["sha256"]:
        return f"{what}: digest {got['sha256'][:12]} != {want['sha256'][:12]}"
    return None


def _csr(edges: np.ndarray, n: int):
    data = np.ones(edges.shape[0], dtype=np.int8)
    return coo_matrix((data, (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()


def check_bfs(levels: np.ndarray, edges: np.ndarray, root: int,
              n: int) -> str | None:
    """Engine BFS levels against SciPy's unweighted shortest paths."""
    want = shortest_path(_csr(edges, n), unweighted=True, indices=root)
    got = np.full(n, np.inf)
    m = min(n, levels.shape[0])
    got[:m] = levels[:m]
    bad = np.flatnonzero(got != want)
    if bad.size:
        v = int(bad[0])
        return (f"bfs: {bad.size} vertices differ, e.g. vertex {v} "
                f"level {got[v]} != {want[v]}")
    return None


def check_cc(labels: np.ndarray, edges: np.ndarray, n: int) -> str | None:
    """Engine CC partition against SciPy's connected components.

    The engine labels a component with its smallest vertex id; SciPy's
    labels are arbitrary, so both sides are mapped to that canonical
    label before comparing.
    """
    _, comp = connected_components(_csr(edges, n), directed=False)
    smallest = np.full(comp.max() + 1, n, dtype=np.int64)
    np.minimum.at(smallest, comp, np.arange(n))
    want = smallest[comp]
    got = np.arange(n, dtype=np.float64)
    m = min(n, labels.shape[0])
    got[:m] = labels[:m]
    bad = np.flatnonzero(got != want)
    if bad.size:
        v = int(bad[0])
        return (f"cc: {bad.size} vertices differ, e.g. vertex {v} "
                f"label {got[v]} != {want[v]}")
    return None
