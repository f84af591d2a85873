"""Tests for the synthetic corpus generator: determinism, limit regimes,
corpus statistics and the draws of the per-utterance generator it
replaced."""

import bisect
import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelprior import rng, synth
from labelprior.annotations import (
    AgreementGroup,
    AnnotationSet,
    agreement,
    soft_label,
)
from labelprior.synth import (
    SynthConfig,
    SynthUtterance,
    count_stats,
    default_class_names,
    generate,
    generate_columns,
)

from corpora import corpus_of

# Large-sample Monte-Carlo estimates (n = 40000, seeds 123 and 999) of the
# group fractions implied by the default regime mix; frozen as the
# reference the sampled corpus must stay close to.
EXPECTED_DEFAULT_FRACTIONS = {
    AgreementGroup.FULL: 0.435,
    AgreementGroup.MAJORITY: 0.418,
    AgreementGroup.NONE: 0.147,
}


def column_stats(config):
    """The gen table's statistics of the corpus ``config`` generates."""
    return count_stats(synth.corpus(config)[1])


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

    @pytest.mark.parametrize("k, precisions", [
        (2, (120.0, 12.0, 5.0)), (5, (120.0, 12.0, 5.0)), (6, (120.0, 12.0, 6.0)),
        (13, (120.0, 13.0, 13.0)), (130, (130.0, 130.0, 130.0)),
    ])
    def test_default_precisions_rise_to_k(self, k, precisions):
        # Precision k is the flat Dirichlet, the most ambiguous regime at k classes.
        assert SynthConfig(n=10, k=k, d=k).regime_precisions == precisions

    def test_rejects_bad_multi_tag_prob(self):
        with pytest.raises(ValueError):
            SynthConfig(n=10, multi_tag_prob=1.0)

    @pytest.mark.parametrize("settings", [
        {"n": True}, {"n": 5, "k": np.bool_(True)}, {"n": 3, "seed": False},
        {"n": 3, "noise_sigma": True}, {"n": 3, "multi_tag_prob": False},
        {"n": 3, "group_mix": (0.5, 0.5, False)}, {"n": 3, "regime_precisions": (120.0, 12.0, True)},
    ])
    def test_rejects_bool_numbers(self, settings):
        with pytest.raises(ValueError, match="^SynthConfig numbers must not be bool"):
            SynthConfig(**settings)

    @pytest.mark.parametrize("test_frac, message", [
        (-0.1, r"^test-frac must lie in \[0, 1\]$"), (1.5, r"^test-frac must lie in \[0, 1\]$"),
        (math.nan, r"^test-frac must lie in \[0, 1\]$"),
        (True, "^SynthConfig numbers must not be bool"),
    ])
    def test_rejects_test_frac_outside_the_unit_interval(self, test_frac, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(n=10, test_frac=test_frac)

    @pytest.mark.parametrize("field", ["n", "k", "d", "annotators", "seed"])
    def test_counts_and_seed_are_integers(self, field):
        with pytest.raises(TypeError):
            SynthConfig(**{"n": 5, "k": 2, field: 2.5})
        config = SynthConfig(**{"n": 5, "k": 2, field: np.int64(2)})
        assert type(getattr(config, field)) is int and getattr(config, field) == 2


class TestCorpus:
    """``synth.corpus``: gen's corpus, its first ``round(n * (1 - test_frac))`` rows in
    the train split."""

    @pytest.mark.parametrize("test_frac, n_train", [(0.0, 40), (1.0, 0), (0.25, 30), (0.2, 32)])
    def test_the_first_rows_are_the_train_split(self, test_frac, n_train):
        space, corpus = synth.corpus(SynthConfig(n=40, k=3, d=4, seed=1, test_frac=test_frac))
        assert space.names == ("A", "B", "C")
        assert corpus.ids == list(range(40))
        assert corpus.train.dtype == bool
        np.testing.assert_array_equal(corpus.train, np.arange(40) < n_train)

    def test_columns_are_generate_columns(self):
        config = SynthConfig(n=300, seed=3)
        features, _, tags, tags_per_eval, annotators = generate_columns(config)
        corpus = synth.corpus(config)[1]
        for got, want in [(corpus.features, features), (corpus.tags, tags),
                          (corpus.tags_per_eval, tags_per_eval),
                          (corpus.annotators, annotators)]:
            np.testing.assert_array_equal(got, want)


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
        full = column_stats(cfg).group_counts[AgreementGroup.FULL]
        assert full / cfg.n >= 0.95

    def test_flat_prior_regime_produces_no_agreement(self):
        # All mass on the flattest regime with precision equal to the class
        # count; ties are frequent with three annotators when the class
        # space is wide enough.
        cfg = SynthConfig(
            n=1000, k=8, d=16, seed=9,
            group_mix=(0.0, 0.0, 1.0),
            regime_precisions=(120.0, 12.0, 8.0),
        )
        none = column_stats(cfg).group_counts[AgreementGroup.NONE]
        assert none / cfg.n >= 0.3

    def test_default_fractions_track_mix_implied_expectations(self):
        cfg = SynthConfig(n=2000, k=5, d=16, seed=42)
        table = column_stats(cfg)
        for group, expected in EXPECTED_DEFAULT_FRACTIONS.items():
            got = table.group_counts[group] / cfg.n
            assert got == pytest.approx(expected, abs=0.08)

    def test_features_carry_the_true_distribution(self):
        cfg = SynthConfig(n=20, k=4, d=10, seed=3, noise_sigma=0.0)
        utts, _ = generate(cfg)
        for u in utts:
            np.testing.assert_allclose(u.features[:4], u.true_mu, atol=1e-12)
            np.testing.assert_array_equal(u.features[4:], np.zeros(6))

    def test_annotator_order_exchangeable(self):
        cfg = SynthConfig(n=100, k=4, d=8, seed=13)
        utts, _ = generate(cfg)
        rng = np.random.default_rng(0)
        for u in utts:
            perm = rng.permutation(len(u.evaluations))
            shuffled = tuple(u.evaluations[i] for i in perm)
            pair = corpus_of([shuffled, u.evaluations], k=cfg.k)
            groups, majority = agreement(pair.counts, pair.annotators)
            assert groups[0] == groups[1] and majority[0] == majority[1]

    def test_second_tags_distinct(self):
        cfg = SynthConfig(n=500, k=3, d=4, seed=21, multi_tag_prob=0.5)
        utts, _ = generate(cfg)
        multi = 0
        for u in utts:
            for ev in u.evaluations:
                assert len(set(ev)) == len(ev)
                multi += len(ev) > 1
        assert multi > 0

    def test_no_second_tag_without_other_mass(self):
        # A precision just above k - 1 leaves the dominant class a tiny
        # concentration, so the true distribution can put all its mass on
        # one class; a second tag then has no other class to fall on.
        cfg = SynthConfig(n=1, k=2, d=2, annotators=1, seed=0, multi_tag_prob=0.5,
                          regime_precisions=(2.0, 1.0000000000000002, 2.0))
        (u,), _ = generate(cfg)
        assert list(u.evaluations) == [(1,)]


class TestStats:
    def test_single_utterance(self):
        cfg = SynthConfig(n=1, k=3, d=4, seed=2, multi_tag_prob=0.0)
        table = column_stats(cfg)
        assert table.n_utterances == 1
        assert table.n_evaluations == 3
        assert table.n_multi_tag_evaluations == 0
        assert table.avg_labels_per_utterance == pytest.approx(3.0)

    def test_no_multi_tags_when_disabled(self):
        cfg = SynthConfig(n=300, k=5, d=8, seed=4, multi_tag_prob=0.0)
        table = column_stats(cfg)
        assert table.n_multi_tag_evaluations == 0
        assert table.n_utterances_extra_labels == 0

    def test_average_labels_matches_annotators_and_tag_rate(self):
        cfg = SynthConfig(n=2000, k=5, d=16, seed=42)
        expected = cfg.annotators * (1.0 + cfg.multi_tag_prob)
        assert column_stats(cfg).avg_labels_per_utterance == pytest.approx(expected, abs=0.05)

    def test_group_counts_partition(self):
        cfg = SynthConfig(n=400, k=5, d=8, seed=6)
        assert sum(column_stats(cfg).group_counts.values()) == 400

    def test_table_formatting(self):
        cfg = SynthConfig(n=5, k=3, d=4, seed=1)
        table = column_stats(cfg).format_table()
        assert "Number of total utterances" in table
        assert "Average number of labels per utterance" in table

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            count_stats(corpus_of([]))


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


# The per-utterance generator that generate_columns replaced, verbatim with
# its helpers: one fresh stream, and one tuple of class indices in class
# order per annotator.
def _sample_index(gen: np.random.Generator, cum: list[float]) -> int:
    # ``cum`` holds the running sums of the weights, added in np.cumsum's order.
    u = gen.random()
    return min(bisect.bisect_right(cum, u * cum[-1]), len(cum) - 1)


def _regime_alpha(config: SynthConfig, regime: int, dominant: int) -> np.ndarray:
    # Unit base concentration everywhere, remaining precision on the
    # dominant class; at precision k this degenerates to the flat Dirichlet
    # and for precision -> inf the mean approaches the dominant one-hot.
    alpha = np.ones(config.k)
    alpha[dominant] = config.regime_precisions[regime] - (config.k - 1)
    return alpha


def _generate_one(config: SynthConfig, regime_cum: list[float], uid: int) -> SynthUtterance:
    gen = rng.stream(config.seed, rng.DOMAIN_UTTERANCE, uid)
    # Draw order is fixed: regime, dominant class, true distribution,
    # per-annotator tags, then feature noise.
    regime = _sample_index(gen, regime_cum)
    dominant = int(gen.integers(0, config.k))
    mu = gen.dirichlet(_regime_alpha(config, regime, dominant))

    weights = mu.tolist()
    mu_cum = list(accumulate(weights))
    evaluations = []
    for _ in range(config.annotators):
        first = _sample_index(gen, mu_cum)
        tags = [first]
        if gen.random() < config.multi_tag_prob:
            rest = weights.copy()
            rest[first] = 0.0
            # When no other class has mass the draw can land on ``first``.
            second = _sample_index(gen, list(accumulate(rest)))
            if second != first:
                tags.append(second)
        evaluations.append(tuple(sorted(tags)))

    features = np.zeros(config.d)
    features[: config.k] = mu
    if config.noise_sigma > 0.0:
        features = features + config.noise_sigma * gen.standard_normal(config.d)
    return SynthUtterance(uid, mu / mu.sum(), features, tuple(evaluations))


@st.composite
def gen_configs(draw):
    """Configs gen admits, with precisions down to the next float above k - 1
    (where one class can take all the mass) and seeds outside [0, 2**64)."""
    k = draw(st.integers(2, 8))
    precision = st.just(math.nextafter(k - 1, math.inf)) | st.floats(k - 1, 300, exclude_min=True)
    weights = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any))
    return SynthConfig(
        n=draw(st.integers(1, 50)),
        k=k,
        d=draw(st.integers(k, k + 6)),
        annotators=draw(st.integers(1, 10)),
        seed=draw(st.sampled_from([0, 42, -1, 2**64 + 3]) | st.integers(-2**65, 2**65)),
        group_mix=tuple(w / sum(weights) for w in weights),
        regime_precisions=(draw(precision), draw(precision), draw(precision)),
        multi_tag_prob=draw(st.just(0.0) | st.floats(0.0, 0.9)),
        noise_sigma=draw(st.just(0.0) | st.floats(1e-3, 2.0)),
    )


def assert_columns_are_the_per_utterance_draws(config: SynthConfig) -> None:
    regime_cum = list(accumulate(config.group_mix))
    want = [_generate_one(config, regime_cum, uid) for uid in range(config.n)]
    evaluations = [ev for u in want for ev in u.evaluations]
    # Blocks of three utterances, so that most drawn corpora span several.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "_BLOCK", 3)
        features, true_mu, tags, tags_per_eval, annotators = generate_columns(config)
    assert np.array_equal(features, np.array([u.features for u in want]))
    assert np.array_equal(true_mu, np.array([u.true_mu for u in want]))
    assert tags.tolist() == [t for ev in evaluations for t in ev]
    assert tags_per_eval.tolist() == [len(ev) for ev in evaluations]
    assert annotators.tolist() == [config.annotators] * config.n
    view, _ = generate(config)
    assert [(u.uid, u.evaluations) for u in view] == [(u.uid, u.evaluations) for u in want]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(config=gen_configs())
def test_columns_draw_what_the_per_utterance_generator_drew(config):
    assert_columns_are_the_per_utterance_draws(config)


# The default precisions (120, 12, 5), each raised to k where below it: the
# none regime is exactly flat at k = 5, and raised to the flat 10 at k = 10.
@pytest.mark.parametrize("config", [SynthConfig(n=600, seed=42),
                                    SynthConfig(n=600, k=10, d=12, seed=1729, multi_tag_prob=0.2)],
                         ids=["k5", "k10"])
def test_columns_at_the_default_precisions_are_the_per_utterance_draws(config):
    assert_columns_are_the_per_utterance_draws(config)


@pytest.mark.parametrize("k", [2, 5, 10])
def test_gamma_parts_scaled_to_one_are_what_dirichlet_draws(k):
    # Dominant shapes a0 - (k - 1) from the least above 0 through 1 (the flat
    # prior) to far above, with the dominant class first, in the middle and
    # last, so that a unit-alpha run before or after it can be empty.
    precisions = [math.nextafter(k - 1, math.inf), k - 0.5, float(k), k + 0.5, 120.0]
    n = 10_000
    cases = [(precisions[i % 5] - (k - 1), (0, k // 2, k - 1)[i // 5 % 3]) for i in range(n)]
    want, want_next = [], []
    for (shape, c), gen in zip(cases, rng.streams(42, rng.DOMAIN_UTTERANCE, range(n))):
        alpha = np.ones(k)
        alpha[c] = shape
        want.append(gen.dirichlet(alpha))
        want_next.append(gen.random())
    got, got_next = np.zeros((n, k)), []
    for (shape, c), row, gen in zip(cases, got, rng.streams(42, rng.DOMAIN_UTTERANCE, range(n))):
        synth._draw_gamma_parts(gen, row, c, shape)
        got_next.append(gen.random())
    synth._scale_to_one(got)
    assert got.tobytes() == np.array(want).tobytes()
    # The stream is left where gen.dirichlet leaves it.
    assert got_next == want_next
