"""Tests for label expansion, agreement grouping, soft labels, smoothing
and the vote-and-replace transform."""

import numpy as np
import pytest

from labelprior.annotations import (
    AgreementGroup,
    AnnotationSet,
    ClassSpace,
    Evaluation,
    agreement,
    classify_agreement,
    expand,
    smooth_label,
    soft_label,
    vote_and_replace,
    vote_matrix,
)

ABC = ClassSpace(("A", "B", "C"))
A, B, C = 0, 1, 2


def ev(*tags):
    return Evaluation(tuple(tags))


def one_hot(index, k=3):
    label = np.zeros(k)
    label[index] = 1.0
    return label


class TestClassSpace:
    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            ClassSpace(("A",))

    def test_requires_unique_names(self):
        with pytest.raises(ValueError):
            ClassSpace(("A", "A"))

    def test_index_lookup(self):
        assert ABC.index("B") == 1
        with pytest.raises(ValueError):
            ABC.index("Z")


class TestEvaluation:
    def test_tags_are_sorted(self):
        assert ev(2, 0).tags == (0, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Evaluation(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Evaluation((1, 1))


class TestExpand:
    def test_multi_tag_expansion(self):
        labels = expand([ev(A), ev(A, B), ev(C)], ABC)
        expected = [one_hot(A), one_hot(A), one_hot(B), one_hot(C)]
        assert len(labels) == 4
        for got, want in zip(labels, expected):
            np.testing.assert_array_equal(got, want)

    def test_single_annotator_single_tag(self):
        labels = expand([ev(A)], ABC)
        assert len(labels) == 1
        np.testing.assert_array_equal(labels[0], one_hot(A))

    def test_both_classes_of_k2(self):
        space = ClassSpace(("A", "B"))
        labels = expand([ev(0, 1)], space)
        np.testing.assert_array_equal(labels[0], [1.0, 0.0])
        np.testing.assert_array_equal(labels[1], [0.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expand([], ABC)

    def test_out_of_range_tag_rejected(self):
        with pytest.raises(ValueError):
            expand([ev(3)], ABC)


class TestVoteCounts:
    def test_multi_tag_counts(self):
        np.testing.assert_array_equal(vote_matrix([[ev(A), ev(A, B), ev(C)]], ABC)[0], [[2, 1, 1]])

    def test_tied_counts(self):
        np.testing.assert_array_equal(
            vote_matrix([[ev(A), ev(A, B), ev(B, C)]], ABC)[0], [[2, 2, 1]]
        )

    def test_unanimous(self):
        np.testing.assert_array_equal(vote_matrix([[ev(A)] * 3], ABC)[0], [[3, 0, 0]])


class TestClassifyAgreement:
    # The five canonical annotation situations for three annotators.
    @pytest.mark.parametrize(
        "evals,group,majority",
        [
            ([ev(A), ev(A), ev(A)], AgreementGroup.FULL, A),
            ([ev(A), ev(A), ev(B)], AgreementGroup.MAJORITY, A),
            ([ev(A), ev(A, B), ev(C)], AgreementGroup.MAJORITY, A),
            ([ev(A), ev(B), ev(C)], AgreementGroup.NONE, None),
            ([ev(A), ev(A, B), ev(B, C)], AgreementGroup.NONE, None),
        ],
    )
    def test_canonical_rows(self, evals, group, majority):
        assert classify_agreement(evals, ABC) == (group, majority)

    def test_single_annotator_single_tag_is_full(self):
        assert classify_agreement([ev(A)], ABC) == (AgreementGroup.FULL, A)

    def test_single_annotator_multi_tag_is_none(self):
        assert classify_agreement([ev(A, B)], ABC) == (AgreementGroup.NONE, None)

    def test_all_annotators_share_two_classes(self):
        # Both classes voted by everyone: no unique class at full count.
        assert classify_agreement([ev(A, B)] * 3, ABC) == (AgreementGroup.NONE, None)

    def test_full_with_extra_tags(self):
        # A is in every tag set, B only in one.
        assert classify_agreement([ev(A), ev(A), ev(A, B)], ABC) == (AgreementGroup.FULL, A)


def reference_rule(counts, n_annotators):
    """The agreement rule written out for one utterance."""
    top = max(counts)
    leaders = [c for c, v in enumerate(counts) if v == top]
    if len(leaders) == 1 and top == n_annotators:
        return AgreementGroup.FULL, leaders[0]
    if len(leaders) == 1 and top >= 2:
        return AgreementGroup.MAJORITY, leaders[0]
    return AgreementGroup.NONE, None


class TestBatchAgreement:
    def test_random_corpora_match_row_by_row(self):
        # Multi-tags make tied vote counts common.
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            space = ClassSpace(tuple(f"c{i}" for i in range(k)))
            sets = [
                [Evaluation(tuple(int(t) for t in rng.choice(k, size=int(rng.integers(1, k + 1)),
                                                              replace=False)))
                 for _ in range(int(rng.integers(1, 6)))]
                for _ in range(50)
            ]
            counts, annotators = vote_matrix(sets, space)
            groups, majority = agreement(counts, annotators)
            for i, evals in enumerate(sets):
                np.testing.assert_array_equal(counts[i], vote_matrix([evals], space)[0][0])
                expected = reference_rule(list(counts[i]), len(evals))
                assert classify_agreement(evals, space) == expected
                assert (groups[i], None if majority[i] < 0 else majority[i]) == expected

    def test_empty_corpus(self):
        counts, annotators = vote_matrix([], ABC)
        assert counts.shape == (0, 3) and annotators.shape == (0,)
        assert [a.shape for a in agreement(counts, annotators)] == [(0,), (0,)]

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one evaluation"):
            vote_matrix([[ev(A)], []], ABC)
        with pytest.raises(ValueError, match="outside class space"):
            vote_matrix([[ev(A)], [ev(3)]], ABC)


class TestSoftLabel:
    def test_two_to_one_split(self):
        dist = soft_label([one_hot(A), one_hot(A), one_hot(B)])
        np.testing.assert_allclose(dist.p, [2.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-15)

    def test_single_label(self):
        dist = soft_label([one_hot(0, k=2)])
        np.testing.assert_array_equal(dist.p, [1.0, 0.0])

    def test_symmetric(self):
        dist = soft_label([one_hot(A), one_hot(B), one_hot(C)])
        np.testing.assert_allclose(dist.p, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            soft_label([])

    def test_simplex_invariant_on_random_annotation_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            space = ClassSpace(tuple(f"c{i}" for i in range(k)))
            evals = []
            for _ in range(int(rng.integers(1, 5))):
                n_tags = int(rng.integers(1, k + 1))
                tags = rng.choice(k, size=n_tags, replace=False)
                evals.append(Evaluation(tuple(int(t) for t in tags)))
            dist = soft_label(expand(evals, space))
            assert np.all(dist.p >= 0.0)
            assert abs(dist.p.sum() - 1.0) <= 1e-12


class TestSmoothLabel:
    def test_five_way(self):
        dist = smooth_label(one_hot(0, k=5), 0.01)
        np.testing.assert_allclose(dist.p, [0.96, 0.01, 0.01, 0.01, 0.01], atol=1e-15)

    def test_two_way(self):
        dist = smooth_label(one_hot(0, k=2), 0.01)
        np.testing.assert_allclose(dist.p, [0.99, 0.01], atol=1e-15)

    def test_zero_eps_is_identity(self):
        dist = smooth_label(one_hot(1), 0.0)
        np.testing.assert_array_equal(dist.p, one_hot(1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            smooth_label(one_hot(0), -0.01)
        with pytest.raises(ValueError):
            smooth_label(one_hot(0), 0.5)  # 1/(K-1) = 0.5 for K=3


class TestVoteAndReplace:
    def test_replaces_with_majority(self):
        # A A A B C has five labels; A, AB, C has four from three annotators.
        evals = [ev(A)] * 3 + [ev(B), ev(C)]
        replaced = vote_and_replace([evals, [ev(A), ev(A, B), ev(C)]], ABC)
        assert replaced == [(ev(A),) * 5, (ev(A),) * 4]

    def test_none_group_unchanged(self):
        evals = [ev(A), ev(B), ev(C)]
        assert vote_and_replace([evals], ABC) == [tuple(evals)]

    def test_fixed_point(self):
        evals = [ev(A), ev(A)]
        assert vote_and_replace([evals], ABC) == [tuple(evals)]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            evals = [
                Evaluation(tuple(int(t) for t in rng.choice(3, size=int(rng.integers(1, 3)), replace=False)))
                for _ in range(3)
            ]
            once = vote_and_replace([evals], ABC)
            assert vote_and_replace(once, ABC) == once


class TestAnnotationSet:
    def test_derived_views(self):
        ann = AnnotationSet((ev(A), ev(A, B), ev(C)), ABC)
        assert ann.num_labels == 4
        assert ann.group == AgreementGroup.MAJORITY
        assert ann.majority == A
        assert len(ann.labels) == 4

    def test_full_implies_one_hot_soft_label(self):
        rng = np.random.default_rng(5)
        seen_full = 0
        for _ in range(200):
            evals = [ev(int(rng.integers(0, 3))) for _ in range(3)]
            ann = AnnotationSet(tuple(evals), ABC)
            if ann.group == AgreementGroup.FULL:
                seen_full += 1
                dist = soft_label(ann.labels)
                assert np.isclose(dist.p.max(), 1.0)
        assert seen_full > 0

    def test_groups_partition_corpus(self):
        rng = np.random.default_rng(9)
        sets = []
        for _ in range(300):
            evals = []
            for _ in range(3):
                n_tags = int(rng.integers(1, 3))
                tags = rng.choice(3, size=n_tags, replace=False)
                evals.append(Evaluation(tuple(int(t) for t in tags)))
            sets.append(AnnotationSet(tuple(evals), ABC))
        counts = {g: 0 for g in AgreementGroup}
        for ann in sets:
            counts[ann.group] += 1
        assert sum(counts.values()) == 300
