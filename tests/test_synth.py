"""Tests for the synthetic corpus generator: determinism, limit regimes
and corpus statistics."""

import numpy as np
import pytest

from labelprior.annotations import (
    AgreementGroup,
    AnnotationSet,
    ClassSpace,
    agreement,
    soft_label,
    vote_matrix,
)
from labelprior.synth import SynthConfig, default_class_names, generate, stats

# Large-sample Monte-Carlo estimates (n = 40000, seeds 123 and 999) of the
# group fractions implied by the default regime mix; frozen as the
# reference the sampled corpus must stay close to.
EXPECTED_DEFAULT_FRACTIONS = {
    AgreementGroup.FULL: 0.435,
    AgreementGroup.MAJORITY: 0.418,
    AgreementGroup.NONE: 0.147,
}


class TestSynthConfig:
    def test_rejects_k_larger_than_d(self):
        with pytest.raises(ValueError, match="d >= k"):
            SynthConfig(n=10, k=5, d=3)

    def test_rejects_bad_group_mix(self):
        with pytest.raises(ValueError):
            SynthConfig(n=10, group_mix=(0.5, 0.4, 0.2))

    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            SynthConfig(n=10, k=5, regime_precisions=(120.0, 12.0, 3.0))

    def test_rejects_bad_multi_tag_prob(self):
        with pytest.raises(ValueError):
            SynthConfig(n=10, multi_tag_prob=1.0)


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n=50, k=4, d=8, seed=7)
        a, _ = generate(cfg)
        b, _ = generate(cfg)
        for ua, ub in zip(a, b):
            assert ua.evaluations == ub.evaluations
            np.testing.assert_array_equal(ua.features, ub.features)
            np.testing.assert_array_equal(ua.true_mu, ub.true_mu)

    def test_utterance_streams_independent_of_n(self):
        # Utterance i is the same whether the corpus has 10 or 50 records.
        small, _ = generate(SynthConfig(n=10, k=3, d=4, seed=11))
        large, _ = generate(SynthConfig(n=50, k=3, d=4, seed=11))
        for ua, ub in zip(small, large):
            assert ua.evaluations == ub.evaluations
            np.testing.assert_array_equal(ua.features, ub.features)

    def test_infinite_precision_limit_is_full_agreement(self):
        cfg = SynthConfig(
            n=1000, k=5, d=16, seed=5,
            regime_precisions=(1e6, 1e6, 1e6), noise_sigma=0.0,
        )
        utts, space = generate(cfg)
        full = stats([u.evaluations for u in utts], space).group_counts[AgreementGroup.FULL]
        assert full / len(utts) >= 0.95

    def test_flat_prior_regime_produces_no_agreement(self):
        # All mass on the flattest regime with precision equal to the class
        # count; ties are frequent with three annotators when the class
        # space is wide enough.
        cfg = SynthConfig(
            n=1000, k=8, d=16, seed=9,
            group_mix=(0.0, 0.0, 1.0),
            regime_precisions=(120.0, 12.0, 8.0),
        )
        utts, space = generate(cfg)
        none = stats([u.evaluations for u in utts], space).group_counts[AgreementGroup.NONE]
        assert none / len(utts) >= 0.3

    def test_default_fractions_track_mix_implied_expectations(self):
        cfg = SynthConfig(n=2000, k=5, d=16, seed=42)
        utts, space = generate(cfg)
        st = stats([u.evaluations for u in utts], space)
        for group, expected in EXPECTED_DEFAULT_FRACTIONS.items():
            got = st.group_counts[group] / cfg.n
            assert got == pytest.approx(expected, abs=0.08)

    def test_features_carry_the_true_distribution(self):
        cfg = SynthConfig(n=20, k=4, d=10, seed=3, noise_sigma=0.0)
        utts, _ = generate(cfg)
        for u in utts:
            np.testing.assert_allclose(u.features[:4], u.true_mu, atol=1e-12)
            np.testing.assert_array_equal(u.features[4:], np.zeros(6))

    def test_annotator_order_exchangeable(self):
        cfg = SynthConfig(n=100, k=4, d=8, seed=13)
        utts, space = generate(cfg)
        rng = np.random.default_rng(0)
        for u in utts:
            perm = rng.permutation(len(u.evaluations))
            shuffled = tuple(u.evaluations[i] for i in perm)
            groups, majority = agreement(*vote_matrix([shuffled, u.evaluations], space))
            assert groups[0] == groups[1] and majority[0] == majority[1]

    def test_second_tags_distinct(self):
        cfg = SynthConfig(n=500, k=3, d=4, seed=21, multi_tag_prob=0.5)
        utts, _ = generate(cfg)
        multi = 0
        for u in utts:
            for ev in u.evaluations:
                assert len(set(ev.tags)) == len(ev.tags)
                multi += len(ev.tags) > 1
        assert multi > 0

    def test_no_second_tag_without_other_mass(self):
        # A precision just above k - 1 leaves the dominant class a tiny
        # concentration, so the true distribution can put all its mass on
        # one class; a second tag then has no other class to fall on.
        cfg = SynthConfig(n=1, k=2, d=2, annotators=1, seed=0, multi_tag_prob=0.5,
                          regime_precisions=(2.0, 1.0000000000000002, 2.0))
        (u,), _ = generate(cfg)
        assert [ev.tags for ev in u.evaluations] == [(1,)]


class TestStats:
    def test_single_utterance(self):
        cfg = SynthConfig(n=1, k=3, d=4, seed=2, multi_tag_prob=0.0)
        utts, space = generate(cfg)
        st = stats([u.evaluations for u in utts], space)
        assert st.n_utterances == 1
        assert st.n_evaluations == 3
        assert st.n_multi_tag_evaluations == 0
        assert st.avg_labels_per_utterance == pytest.approx(3.0)

    def test_no_multi_tags_when_disabled(self):
        cfg = SynthConfig(n=300, k=5, d=8, seed=4, multi_tag_prob=0.0)
        utts, space = generate(cfg)
        st = stats([u.evaluations for u in utts], space)
        assert st.n_multi_tag_evaluations == 0
        assert st.n_utterances_extra_labels == 0

    def test_average_labels_matches_annotators_and_tag_rate(self):
        cfg = SynthConfig(n=2000, k=5, d=16, seed=42)
        utts, space = generate(cfg)
        st = stats([u.evaluations for u in utts], space)
        expected = cfg.annotators * (1.0 + cfg.multi_tag_prob)
        assert st.avg_labels_per_utterance == pytest.approx(expected, abs=0.05)

    def test_group_counts_partition(self):
        cfg = SynthConfig(n=400, k=5, d=8, seed=6)
        utts, space = generate(cfg)
        st = stats([u.evaluations for u in utts], space)
        assert sum(st.group_counts.values()) == 400

    def test_table_formatting(self):
        cfg = SynthConfig(n=5, k=3, d=4, seed=1)
        utts, space = generate(cfg)
        table = stats([u.evaluations for u in utts], space).format_table()
        assert "Number of total utterances" in table
        assert "Average number of labels per utterance" in table

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats([], ClassSpace(default_class_names(3)))


def test_default_class_names():
    assert default_class_names(3) == ("A", "B", "C")
    names = default_class_names(30)
    assert names[25] == "Z" and names[26] == "c26"
    assert len(set(names)) == 30


def test_soft_labels_exchangeable_in_annotator_order():
    cfg = SynthConfig(n=50, k=4, d=8, seed=17, multi_tag_prob=0.3)
    utts, space = generate(cfg)
    rng = np.random.default_rng(1)
    for u in utts:
        perm = rng.permutation(len(u.evaluations))
        shuffled = tuple(u.evaluations[i] for i in perm)
        base = soft_label(AnnotationSet(u.evaluations, space).labels).p
        moved = soft_label(AnnotationSet(shuffled, space).labels).p
        np.testing.assert_allclose(moved, base, atol=1e-15)
