"""Deterministic 1-D k-means and the correct-decision ratio RI.

The evaluation protocol pits two recording groups against each other: their
scalar indicator values are concatenated, clustered with k=2, and scored by
RI = correct decisions / total decisions under the better of the two
cluster-to-label bijections. Everything here is deterministic: centroids
start at the feature minimum and maximum, distance ties break toward the
lower centroid, and there is no randomness anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DistinctValuesError, EmptyInputError

MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class KMeansResult:
    assignments: tuple[int, ...]
    centroids: tuple[float, ...]
    iterations: int
    converged: bool  # False if the assignments still changed at MAX_ITERATIONS


def _assign(values: Sequence[float], centroids: Sequence[float]) -> tuple[int, ...]:
    # Nearest centroid; ties go to the lower centroid (centroids are ascending).
    low, high = centroids
    return tuple(int(abs(v - high) < abs(v - low)) for v in values)


def kmeans_1d(values: Sequence[float]) -> KMeansResult:
    """Two-cluster Lloyd iteration on scalars, started at the extremes."""
    values = [float(v) for v in values]
    distinct = sorted(set(values))
    if len(distinct) < 2:
        raise DistinctValuesError(
            f"k-means with k=2 needs at least 2 distinct values, got {len(distinct)}"
        )

    lo, hi = distinct[0], distinct[-1]
    # lo + (hi - lo) is not always hi: lo=-1e20, hi=1 gives 0.
    centroids = [lo, lo + (hi - lo)]
    assignments = _assign(values, centroids)

    iterations = 0
    converged = False
    for _ in range(MAX_ITERATIONS):
        iterations += 1
        new_centroids = []
        for j in range(2):
            members = [v for v, a in zip(values, assignments) if a == j]
            # An empty cluster keeps its previous centroid.
            new_centroids.append(math.fsum(members) / len(members) if members else centroids[j])
        new_centroids.sort()
        new_assignments = _assign(values, new_centroids)
        centroids = new_centroids
        if new_assignments == assignments:
            converged = True
            break
        assignments = new_assignments

    return KMeansResult(
        assignments=assignments,
        centroids=tuple(centroids),
        iterations=iterations,
        converged=converged,
    )


def rand_accuracy(assignments: Sequence[int], truth: Sequence) -> float:
    """CD/TD under the better of the two cluster-to-label bijections."""
    if len(assignments) != len(truth):
        raise ValueError(f"{len(assignments)} assignments vs {len(truth)} labels")
    labels = sorted(set(truth))
    if len(labels) != 2:
        raise ValueError(f"need exactly two distinct labels, got {labels}")
    direct = sum(
        1 for a, t in zip(assignments, truth) if labels[a] == t
    )
    swapped = len(truth) - direct
    return max(direct, swapped) / len(truth)


def pairwise_classify(
    features_a: Sequence[float], features_b: Sequence[float]
) -> tuple[KMeansResult, float]:
    """Cluster features_a followed by features_b; the k-means result and its RI."""
    if not features_a or not features_b:
        raise EmptyInputError("both groups must contribute at least one feature")
    result = kmeans_1d([*features_a, *features_b])
    truth = [0] * len(features_a) + [1] * len(features_b)
    return result, rand_accuracy(result.assignments, truth)
