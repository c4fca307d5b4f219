"""Small deterministic k-means used for object-instance association.

Hand-rolled rather than delegated so that seeding, farthest-point
initialization and tie-breaking are fully pinned: database construction
must be byte-reproducible across environments.
"""

from __future__ import annotations

import numpy as np


def _farthest_point_seeds(points: np.ndarray, k: int, first: int) -> np.ndarray:
    centers = [first]
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))  # argmax takes the lowest index on ties
        centers.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[centers].copy()


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int):
    labels = None
    for _ in range(max_iters):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        for j in range(centers.shape[0]):
            sel = new_labels == j
            if sel.any():
                centers[j] = points[sel].mean(axis=0)
            else:
                # revive an empty cluster at the point worst served so far
                worst = int(np.argmax(d2[np.arange(len(points)), new_labels]))
                centers[j] = points[worst]
                new_labels[worst] = j
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    inertia = float(
        np.sum(np.sum((points - centers[labels]) ** 2, axis=1))
    )
    return labels, centers, inertia


def kmeans(
    points: np.ndarray, k: int, seed: int, restarts: int, max_iters: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cluster (N,D) points into k groups; returns (labels, centers, inertia).

    Runs ``restarts`` independent farthest-point-seeded attempts and keeps
    the lowest inertia (first attempt wins ties). Deterministic in ``seed``.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} infeasible for {n} points")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        first = int(rng.integers(n))
        labels, centers, inertia = _lloyd(
            points, _farthest_point_seeds(points, k, first), max_iters
        )
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best
