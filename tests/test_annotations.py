"""Tests for vote counts, agreement grouping, one-hot labels, soft labels
and the vote-and-replace transform."""

from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelprior import annotations
from labelprior.annotations import (
    AgreementGroup,
    AnnotationSet,
    ClassSpace,
    agreement,
    soft_label,
    tag_counts,
    tag_lists,
)

from corpora import corpus_of

ABC = ClassSpace(("A", "B", "C"))
A, B, C = 0, 1, 2


def classify(evaluations, space=ABC):
    """Agreement group and majority class (None for the NONE group) of one
    utterance."""
    ann = AnnotationSet(tuple(evaluations), space)
    return ann.group, ann.majority


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
    # An evaluation is a sequence of class indices; AnnotationSet checks it.
    def test_tags_are_sorted(self):
        assert AnnotationSet(((2, 0), [1, 0, 2]), ABC).evaluations == ((0, 2), (0, 1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="an evaluation must contain at least one tag"):
            AnnotationSet(((),), ABC)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate tags in evaluation"):
            AnnotationSet(((1, 1),), ABC)


class TestOrderedTags:
    """Tags already in class order skip the sort; others are sorted.  Both give
    the same tags and refuse a repeat with the same message."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(evaluations=st.lists(st.sets(st.integers(0, 4), min_size=1), min_size=1, max_size=8),
           data=st.data())
    def test_shuffled_tags_give_the_class_ordered_tags(self, evaluations, data):
        per_eval = np.array([len(ev) for ev in evaluations])
        annotators = np.array([len(evaluations)])
        ordered = [t for ev in evaluations for t in sorted(ev)]
        shuffled = [t for ev in evaluations for t in data.draw(st.permutations(sorted(ev)))]
        got = annotations.ordered_tags(ordered, per_eval, annotators, 5)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ordered)
        np.testing.assert_array_equal(
            annotations.ordered_tags(shuffled, per_eval, annotators, 5), ordered)

    # The second evaluation repeats class 1: beside its twin, apart, and descending.
    @pytest.mark.parametrize("tags", [[0, 1, 1, 2], [0, 1, 2, 1], [0, 2, 1, 1]],
                             ids=["class-order", "shuffled", "descending"])
    def test_repeat_is_refused_on_both_paths(self, tags):
        with pytest.raises(ValueError, match="duplicate tags in evaluation"):
            annotations.ordered_tags(tags, np.array([1, 3]), np.array([2]), 3)


class TestLabels:
    # An utterance's one-hot labels come from its vote counts, grouped by class.
    def test_multi_tag_expansion(self):
        labels = AnnotationSet(((A,), (A, B), (C,)), ABC).labels
        expected = [one_hot(A), one_hot(A), one_hot(B), one_hot(C)]
        assert len(labels) == 4
        for got, want in zip(labels, expected):
            np.testing.assert_array_equal(got, want)

    def test_single_annotator_single_tag(self):
        labels = AnnotationSet(((A,),), ABC).labels
        assert len(labels) == 1
        np.testing.assert_array_equal(labels[0], one_hot(A))

    def test_both_classes_of_k2(self):
        space = ClassSpace(("A", "B"))
        labels = AnnotationSet(((0, 1),), space).labels
        np.testing.assert_array_equal(labels[0], [1.0, 0.0])
        np.testing.assert_array_equal(labels[1], [0.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AnnotationSet((), ABC)

    def test_out_of_range_tag_rejected(self):
        with pytest.raises(ValueError):
            AnnotationSet(((3,),), ABC)


class TestVoteCounts:
    def test_multi_tag_counts(self):
        np.testing.assert_array_equal(corpus_of([[(A,), (A, B), (C,)]]).counts, [[2, 1, 1]])

    def test_tied_counts(self):
        np.testing.assert_array_equal(corpus_of([[(A,), (A, B), (B, C)]]).counts, [[2, 2, 1]])

    def test_unanimous(self):
        np.testing.assert_array_equal(corpus_of([[(A,)] * 3]).counts, [[3, 0, 0]])


class TestClassifyAgreement:
    # The five canonical annotation situations for three annotators.
    @pytest.mark.parametrize(
        "evals,group,majority",
        [
            ([(A,), (A,), (A,)], AgreementGroup.FULL, A),
            ([(A,), (A,), (B,)], AgreementGroup.MAJORITY, A),
            ([(A,), (A, B), (C,)], AgreementGroup.MAJORITY, A),
            ([(A,), (B,), (C,)], AgreementGroup.NONE, None),
            ([(A,), (A, B), (B, C)], AgreementGroup.NONE, None),
        ],
    )
    def test_canonical_rows(self, evals, group, majority):
        assert classify(evals) == (group, majority)

    def test_single_annotator_single_tag_is_full(self):
        assert classify([(A,)]) == (AgreementGroup.FULL, A)

    def test_single_annotator_multi_tag_is_none(self):
        assert classify([(A, B)]) == (AgreementGroup.NONE, None)

    def test_all_annotators_share_two_classes(self):
        # Both classes voted by everyone: no unique class at full count.
        assert classify([(A, B)] * 3) == (AgreementGroup.NONE, None)

    def test_full_with_extra_tags(self):
        # A is in every tag set, B only in one.
        assert classify([(A,), (A,), (A, B)]) == (AgreementGroup.FULL, A)


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
                [tuple(int(t) for t in rng.choice(k, size=int(rng.integers(1, k + 1)),
                                                  replace=False))
                 for _ in range(int(rng.integers(1, 6)))]
                for _ in range(50)
            ]
            corpus = corpus_of(sets, k=k)
            counts, annotators = corpus.counts, corpus.annotators
            groups, majority = agreement(counts, annotators)
            assert groups.dtype == np.int8
            for i, evals in enumerate(sets):
                np.testing.assert_array_equal(counts[i], AnnotationSet(evals, space).counts)
                expected = reference_rule(list(counts[i]), len(evals))
                assert classify(evals, space) == expected
                assert (groups[i], None if majority[i] < 0 else majority[i]) == expected
                # Each code is its member, and the one-row view gives the member.
                assert int(groups[i]) == expected[0].value
                assert classify(evals, space)[0] is expected[0]

    def test_empty_corpus(self):
        corpus = corpus_of([])
        counts, annotators = corpus.counts, corpus.annotators
        assert counts.shape == (0, 3) and annotators.shape == (0,)
        assert [a.shape for a in agreement(counts, annotators)] == [(0,), (0,)]
        assert agreement(counts, annotators)[0].dtype == np.int8

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one evaluation is required"):
            [AnnotationSet(evs, ABC) for evs in [[(A,)], []]]
        with pytest.raises(ValueError, match=r"class indices \[3\] are outside \[0, 3\)"):
            [AnnotationSet(evs, ABC) for evs in [[(A,)], [(3,)]]]


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
                evals.append(tuple(int(t) for t in tags))
            dist = soft_label(AnnotationSet(tuple(evals), space).labels)
            assert np.all(dist.p >= 0.0)
            assert abs(dist.p.sum() - 1.0) <= 1e-12


def reference_replace(counts, majority, kept):
    """Vote-and-replace row by row, the reference for
    ``Corpus.replace_majorities``: a row with a majority gets M single-tag
    evaluations of it, M being its number of labels, and ``kept`` gives, in
    order, the evaluations of the rows without one."""
    kept = iter(kept)
    return [next(kept) if major < 0 else [[major]] * n_labels
            for major, n_labels in zip(majority.tolist(), counts.sum(axis=1).tolist())]


def evaluation_lists(corpus):
    return list(tag_lists(corpus.tags, corpus.tags_per_eval, corpus.annotators))


def replaced(sets):
    """Vote-and-replace of utterances given as lists of class-index
    evaluations, as lists again."""
    return evaluation_lists(corpus_of(sets).replace_majorities())


def columns(corpus):
    return [corpus.ids, corpus.train, corpus.features, corpus.counts, corpus.annotators,
            corpus.groups, corpus.majority, corpus.tags, corpus.tags_per_eval]


@st.composite
def vote_corpora(draw):
    """Records over 2 to 6 classes with 1 to 6 annotators and multi-tag
    evaluations; a third of the corpora keep only their no-majority rows and
    a third only their majority rows."""
    k = draw(st.integers(2, 6))
    evaluation = st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True).map(sorted)
    sets = draw(st.lists(st.lists(evaluation, min_size=1, max_size=6), max_size=12))
    keep = draw(st.sampled_from([None, True, False]))  # None keeps every row
    space = ClassSpace(tuple(map(str, range(k))))

    def no_majority(evs):
        return AnnotationSet(evs, space).majority is None

    return [evs for evs in sets if keep is None or no_majority(evs) == keep], k


class TestVoteAndReplace:
    def test_replaces_with_majority(self):
        # A A A B C has five labels; A, AB, C has four from three annotators.
        evals = [[A]] * 3 + [[B], [C]]
        assert replaced([evals, [[A], [A, B], [C]]]) == [[[A]] * 5, [[A]] * 4]

    def test_none_group_unchanged(self):
        evals = [[A], [B], [C]]
        assert replaced([evals]) == [evals]

    def test_fixed_point(self):
        evals = [[A], [A]]
        assert replaced([evals]) == [evals]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            evals = [rng.choice(3, size=int(rng.integers(1, 3)), replace=False).tolist()
                     for _ in range(3)]
            once = replaced([evals])
            assert replaced(once) == once

    def test_from_counts_keeps_the_given_rows_without_majority(self):
        # Rows: A A A B C (majority), A B C (none), A AB C (majority), AB C (none).
        corpus = corpus_of([[[A]] * 3 + [[B], [C]], [[A], [B], [C]],
                            [[A], [A, B], [C]], [[A, B], [C]]])
        assert (corpus.majority < 0).tolist() == [False, True, False, True]
        kept = [[[A], [B], [C]], [[A, B], [C]]]
        assert evaluation_lists(corpus.replace_majorities()) == [
            [[A]] * 5, kept[0], [[A]] * 4, kept[1]]

    @settings(max_examples=300, deadline=None)
    @given(vote_corpora())
    def test_matches_row_by_row_reference(self, case):
        sets, k = case
        corpus = corpus_of(sets, k=k, features=np.arange(len(sets) * 2.0).reshape(-1, 2),
                           train=[i % 2 == 0 for i in range(len(sets))],
                           ids=range(10, 10 + len(sets)))
        out = corpus.replace_majorities()
        assert evaluation_lists(out) == reference_replace(
            corpus.counts, corpus.majority, compress(sets, (corpus.majority < 0).tolist()))
        # The derived columns are those of the new tags.
        counts = tag_counts(out.tags, out.tags_per_eval, out.annotators, k)
        groups, majority = agreement(counts, out.annotators)
        np.testing.assert_array_equal(out.counts, counts)
        assert out.groups.dtype == np.int8
        np.testing.assert_array_equal(out.groups, groups)
        np.testing.assert_array_equal(out.majority, majority)
        for got, want in zip(columns(out)[:3], columns(corpus)[:3]):
            np.testing.assert_array_equal(got, want)
        # A second application changes nothing.
        for got, want in zip(columns(out.replace_majorities()), columns(out)):
            np.testing.assert_array_equal(got, want)


class TestAnnotationSet:
    def test_derived_views(self):
        ann = AnnotationSet(((A,), (A, B), (C,)), ABC)
        assert ann.group == AgreementGroup.MAJORITY
        assert ann.majority == A
        assert len(ann.labels) == 4

    def test_views_are_derived_once(self, monkeypatch):
        # Construction makes one count and one agreement call; reading the
        # views afterwards makes neither.
        calls = []
        for name in ("tag_counts", "agreement"):
            def counted(*args, _name=name, _real=getattr(annotations, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(annotations, name, counted)
        ann = AnnotationSet([(C,), [B, A], (A,)], ABC)
        assert calls == ["tag_counts", "agreement"]
        for _ in range(2):
            assert (ann.group, ann.majority) == (AgreementGroup.MAJORITY, A)
            np.testing.assert_array_equal(ann.labels, [one_hot(A), one_hot(A), one_hot(B),
                                                       one_hot(C)])
        assert calls == ["tag_counts", "agreement"]
        np.testing.assert_array_equal(ann.counts, [2, 1, 1])
        assert ann.evaluations == ((C,), (A, B), (A,))
        # The views are not arguments.
        with pytest.raises(TypeError):
            AnnotationSet([(A,)], ABC, counts=np.array([0, 3, 0]))

    def test_full_implies_one_hot_soft_label(self):
        rng = np.random.default_rng(5)
        seen_full = 0
        for _ in range(200):
            evals = [(int(rng.integers(0, 3)),) for _ in range(3)]
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
                evals.append(tuple(int(t) for t in tags))
            sets.append(AnnotationSet(tuple(evals), ABC))
        counts = {g: 0 for g in AgreementGroup}
        for ann in sets:
            counts[ann.group] += 1
        assert sum(counts.values()) == 300
