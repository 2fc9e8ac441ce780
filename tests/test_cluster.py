import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tvmhrv import (
    DistinctValuesError,
    EmptyInputError,
    cluster,
    kmeans_1d,
    pairwise_classify,
    rand_accuracy,
)

features = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)


class TestKMeans:
    def test_two_well_separated_triples(self):
        result = kmeans_1d([1.0, 1.1, 0.9, 10.0, 10.2, 9.8])
        assert result.assignments == (0, 0, 0, 1, 1, 1)
        assert result.centroids[0] == pytest.approx(1.0)
        assert result.centroids[1] == pytest.approx(10.0)

    def test_two_points(self):
        result = kmeans_1d([0.0, 10.0])
        assert result.assignments == (0, 1)
        assert result.centroids == (0.0, 10.0)
        assert result.iterations == 1

    def test_identical_values_rejected(self):
        with pytest.raises(DistinctValuesError):
            kmeans_1d([5.0, 5.0, 5.0])

    @given(features)
    def test_deterministic(self, values):
        if len(set(values)) < 2:
            values = values + [max(values) + 1.0]
        assert kmeans_1d(values) == kmeans_1d(values)

    @given(features)
    def test_assignments_monotone_in_value(self, values):
        if len(set(values)) < 2:
            values = values + [max(values) + 1.0]
        result = kmeans_1d(values)
        pairs = sorted(zip(values, result.assignments))
        labels = [a for _, a in pairs]
        assert labels == sorted(labels)

    def test_stop_at_max_iterations_is_reported(self, monkeypatch):
        # The first update moves 4.9 to the upper cluster, so a second pass is needed.
        values = [0.0, 4.9, 5.1, 5.2, 10.0]
        result = kmeans_1d(values)
        assert (result.iterations, result.converged) == (2, True)
        monkeypatch.setattr(cluster, "MAX_ITERATIONS", 1)
        result = kmeans_1d(values)
        assert (result.iterations, result.converged) == (1, False)
        assert pairwise_classify(values[:2], values[2:])[0].converged is False

    def test_tie_breaks_to_lower_centroid(self):
        # 5 is equidistant from both centroids; it must join cluster 0.
        result = kmeans_1d([0.0, 0.0, 10.0, 10.0, 5.0])
        assert result.assignments[-1] == 0


class TestRandAccuracy:
    def test_perfect_separation(self):
        assert rand_accuracy((0, 0, 1, 1), ("A", "A", "B", "B")) == 1.0

    def test_interleaved_is_half(self):
        assert rand_accuracy((0, 1, 0, 1), ("A", "A", "B", "B")) == 0.5

    def test_bijection_symmetry(self):
        assert rand_accuracy((1, 1, 0, 0), ("A", "A", "B", "B")) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rand_accuracy((0, 1), ("A", "A", "B"))

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            rand_accuracy((0, 1), ("A", "A"))

    def test_three_labels_rejected(self):
        with pytest.raises(ValueError):
            rand_accuracy((0, 1, 0), ("A", "B", "C"))

    @given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=30))
    def test_invariant_under_cluster_and_label_swap(self, assignments):
        truth = tuple("A" if i % 3 else "B" for i in range(len(assignments)))
        if len(set(truth)) != 2:
            truth = ("A",) + truth[1:-1] + ("B",)
        ri = rand_accuracy(assignments, truth)
        assert ri == rand_accuracy([1 - a for a in assignments], truth)
        swapped = tuple("B" if t == "A" else "A" for t in truth)
        assert ri == rand_accuracy(assignments, swapped)
        assert 0.5 <= ri <= 1.0


class TestPairwiseClassify:
    def test_clear_separation(self):
        result, ri = pairwise_classify([99.0, 100.0, 101.0], [0.9, 1.0, 1.1])
        assert ri == 1.0
        assert result.centroids[0] < result.centroids[1]

    def test_identical_single_values_rejected(self):
        with pytest.raises(DistinctValuesError):
            pairwise_classify([4.2], [4.2])

    def test_adversarial_interleaving_scores_half(self):
        # Both groups contribute the same two extremes, so the Lloyd split
        # cuts across the truth and both bijections get exactly half right.
        _, ri = pairwise_classify([0.0, 10.0], [0.0, 10.0])
        assert ri == 0.5

    def test_overlapping_features_score_at_least_half(self):
        _, ri = pairwise_classify([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
        assert ri >= 0.5

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyInputError):
            pairwise_classify([], [1.0, 2.0])

    def test_assignments_follow_the_concatenated_features(self):
        result, ri = pairwise_classify([1.0, 2.0], [8.0, 9.0])
        assert ri == 1.0
        assert result.assignments == (0, 0, 1, 1)
        assert result.centroids == (1.5, 8.5)
        assert result.iterations == 1

    @given(features, st.integers(min_value=1), st.sampled_from([("a", "b"), ("b", "a"), (7, -7)]))
    def test_ri_is_scored_against_group_membership(self, values, split, labels):
        # RI takes the better bijection, so any two names of the groups give it.
        assume(len(set(values)) >= 2)
        split = 1 + split % (len(values) - 1)
        result, ri = pairwise_classify(values[:split], values[split:])
        truth = [labels[0]] * split + [labels[1]] * (len(values) - split)
        assert ri == rand_accuracy(result.assignments, truth)


class TestLabeledFeatures:
    """Features clustered by kmeans_1d and scored against their labels."""

    def test_validates_alignment(self):
        assignments = kmeans_1d([1.0, 2.0]).assignments
        with pytest.raises(ValueError):
            rand_accuracy(assignments, ("A",))

    def test_validates_two_labels(self):
        assignments = kmeans_1d([1.0, 2.0]).assignments
        with pytest.raises(ValueError):
            rand_accuracy(assignments, ("A", "A"))
