"""Tests for accuracy, uncertainty scores, PR curves and report assembly.

The PR/AUPR path is checked against a deliberately naive brute-force
enumeration that recomputes precision and recall from scratch for every
distinct threshold.
"""

import math

import numpy as np
import pytest

from labelprior.annotations import AgreementGroup
from labelprior.dirichlet import CategoricalDist
from labelprior.metrics import (
    PRCurve,
    aupr,
    build_report,
    detect_report,
    entropy,
    kl_divergence,
    max_p,
    pr_curve,
    predicted_class,
    wa_ua,
)


def brute_force_average_precision(scores, positives, higher_is_positive=True):
    """O(n^2) reference: enumerate thresholds, accumulate AP by hand."""
    scores = list(scores)
    positives = list(positives)
    n_pos = sum(positives)
    thresholds = sorted(set(scores), reverse=higher_is_positive)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        if higher_is_positive:
            predicted = [s >= t for s in scores]
        else:
            predicted = [s <= t for s in scores]
        tp = sum(1 for p, y in zip(predicted, positives) if p and y)
        fp = sum(1 for p, y in zip(predicted, positives) if p and not y)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def dist(*p):
    return CategoricalDist(np.asarray(p, dtype=np.float64))


class TestWaUa:
    def test_hand_count(self):
        wa, ua = wa_ua([0, 0, 0, 1], [0, 0, 0, 0], k=2)
        assert wa == pytest.approx(0.75)
        assert ua == pytest.approx(0.5)

    def test_perfect(self):
        wa, ua = wa_ua([0, 1, 2], [0, 1, 2], k=3)
        assert wa == 1.0 and ua == 1.0

    def test_all_wrong(self):
        wa, ua = wa_ua([0, 1], [1, 0], k=2)
        assert wa == 0.0 and ua == 0.0

    def test_only_present_classes_counted(self):
        # Class 2 never appears in refs: UA averages over classes 0 and 1.
        wa, ua = wa_ua([0, 0, 1], [0, 1, 1], k=3)
        assert ua == pytest.approx((0.5 + 1.0) / 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wa_ua([], [], k=2)


class TestScores:
    def test_max_p(self):
        assert max_p(dist(0.5, 0.25, 0.25)) == pytest.approx(0.5)
        assert max_p(dist(*[0.2] * 5)) == pytest.approx(0.2)
        assert max_p(dist(0.0, 1.0)) == 1.0

    def test_entropy_uniform(self):
        assert entropy(dist(*[0.2] * 5)) == pytest.approx(math.log(5.0), abs=1e-12)

    def test_entropy_one_hot(self):
        assert entropy(dist(1.0, 0.0, 0.0)) == 0.0
        # +0.0, not -0.0, which a curve file would print as "-0.000000".
        assert np.copysign(1.0, entropy(dist(1.0, 0.0, 0.0))) == 1.0
        np.testing.assert_array_equal(np.copysign(1.0, entropy(np.eye(3))), 1.0)

    def test_entropy_binary(self):
        assert entropy(dist(0.5, 0.5)) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_extremes_pair(self):
        k = 5
        assert (max_p(dist(*[1 / k] * k)), entropy(dist(*[1 / k] * k))) == (
            pytest.approx(1 / k),
            pytest.approx(math.log(k)),
        )
        one_hot = dist(*([1.0] + [0.0] * (k - 1)))
        assert (max_p(one_hot), entropy(one_hot)) == (1.0, 0.0)


    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), size=30)
        targets = rng.dirichlet(np.ones(4), size=30)
        probs[:3] = [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.25] * 4]
        targets[:2] = [[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]  # KL +inf, then finite
        for fn in (max_p, entropy, predicted_class):
            np.testing.assert_array_equal(fn(probs), [fn(dist(*p)) for p in probs])
            np.testing.assert_array_equal(fn([dist(*p) for p in probs]), fn(probs))
        np.testing.assert_array_equal(
            kl_divergence(targets, probs),
            [kl_divergence(dist(*t), dist(*q)) for t, q in zip(targets, probs)])
        assert kl_divergence(targets, probs)[0] == float("inf")


class TestMeanKl:
    # The report's mean KL is the mean of one batched kl_divergence call.
    def test_identical_is_zero(self):
        ds = [dist(0.2, 0.8), dist(0.7, 0.3)]
        assert np.mean(kl_divergence(ds, ds)) == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_vs_uniform(self):
        assert np.mean(kl_divergence([dist(1.0, 0.0)], [dist(0.5, 0.5)])) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(42)
        targets = [dist(*rng.dirichlet(np.ones(4))) for _ in range(50)]
        preds = [dist(*rng.dirichlet(np.ones(4) * 5)) for _ in range(50)]
        direct = sum(kl_divergence(t, q) for t, q in zip(targets, preds)) / 50
        assert np.mean(kl_divergence(targets, preds)) == pytest.approx(direct, abs=1e-12)

    def test_infinite_when_pred_misses_support(self):
        assert kl_divergence(dist(0.5, 0.5), dist(1.0, 0.0)) == float("inf")

    def test_rejects_a_class_count_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            kl_divergence(np.full(2, 0.5), np.full(3, 1.0 / 3.0))


class TestPrCurve:
    def test_perfect_separation(self):
        curve = pr_curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert tuple(curve.points[1]) == (0.8, 1.0, 1.0)
        assert aupr(curve) == pytest.approx(1.0)

    def test_points_are_an_n_by_3_array(self):
        curve = pr_curve([0.9, 0.8, 0.2, 0.1], [True, False, True, False])
        assert curve.points.dtype == np.float64 and curve.points.shape == (4, 3)
        assert PRCurve(curve.points.tolist()) == curve
        assert PRCurve(curve.points[:-1]) != curve
        # A non-curve is left to the other operand, so it is never equal.
        zeros = PRCurve(np.zeros((1, 3)))
        assert zeros.__eq__("curve") is NotImplemented
        assert zeros != "curve"
        assert not (zeros == "curve")
        with pytest.raises(ValueError, match=r"shape \(n, 3\), got \(3,\)"):
            PRCurve((0.9, 1.0, 0.5))

    def test_all_scores_equal(self):
        curve = pr_curve([0.5] * 4, [True, False, False, True])
        assert len(curve.points) == 1
        threshold, precision, recall = curve.points[0]
        assert precision == pytest.approx(0.5)  # prevalence
        assert recall == 1.0
        assert aupr(curve) == pytest.approx(0.5)

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(0)
        scores = rng.random(100)
        positives = rng.random(100) < 0.4
        positives[0] = True
        positives[1] = False
        curve = pr_curve(scores, positives)
        recalls = [p[2] for p in curve.points]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == 1.0

    def test_lower_is_positive_orientation(self):
        curve = pr_curve([0.1, 0.2, 0.8, 0.9], [True, True, False, False],
                         higher_is_positive=False)
        assert aupr(curve) == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            pr_curve([0.1, 0.2], [True, True])
        with pytest.raises(ValueError):
            pr_curve([0.1, 0.2], [False, False])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError,
                           match="^scores and is_positive must be parallel 1-d sequences$"):
            pr_curve([0.1, 0.2], [True])

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(5, 200))
            # Coarse scores force plenty of ties.
            scores = np.round(rng.random(n), 2)
            positives = rng.random(n) < rng.uniform(0.2, 0.8)
            if positives.all() or not positives.any():
                continue
            higher = bool(rng.integers(0, 2))
            curve = pr_curve(scores, positives, higher_is_positive=higher)
            expected = brute_force_average_precision(scores, positives, higher)
            assert aupr(curve) == pytest.approx(expected, abs=1e-9), trial

    def test_points_match_brute_force_thresholds(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.random(200), 1)
        positives = rng.random(200) < 0.5
        curve = pr_curve(scores, positives)
        n_pos = positives.sum()
        for threshold, precision, recall in curve.points:
            predicted = scores >= threshold
            tp = int((predicted & positives).sum())
            fp = int((predicted & ~positives).sum())
            assert precision == pytest.approx(tp / (tp + fp))
            assert recall == pytest.approx(tp / n_pos)


class TestAupr:
    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(42)
        scores = rng.random(150)
        positives = rng.random(150) < 0.5
        positives[:2] = [True, False]
        base = aupr(pr_curve(scores, positives))
        for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s**3):
            transformed = aupr(pr_curve(transform(scores), positives))
            assert transformed == pytest.approx(base, abs=1e-12)


class TestDetectReport:
    def test_perfect_separation(self):
        groups = [AgreementGroup.FULL, AgreementGroup.MAJORITY, AgreementGroup.NONE]
        preds = [dist(1.0, 0.0), dist(0.9, 0.1), dist(0.5, 0.5)]
        _, _, aupr_maxp, aupr_ent = detect_report(groups, preds)
        assert aupr_maxp == pytest.approx(1.0)
        assert aupr_ent == pytest.approx(1.0)

    def test_unequal_lengths_rejected(self):
        groups = [AgreementGroup.FULL, AgreementGroup.NONE, AgreementGroup.FULL]
        with pytest.raises(ValueError, match="^groups and preds must be equal-length and "
                           "non-empty$"):
            detect_report(groups, [dist(0.6, 0.4), dist(0.5, 0.5)])

    def test_identical_predictions_give_prevalence(self):
        groups = [AgreementGroup.FULL] * 3 + [AgreementGroup.NONE] * 1
        preds = [dist(0.6, 0.4)] * 4
        _, _, aupr_maxp, aupr_ent = detect_report(groups, preds)
        assert aupr_maxp == pytest.approx(0.75)
        assert aupr_ent == pytest.approx(0.75)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        groups, preds = [], []
        for _ in range(120):
            p = rng.dirichlet(np.ones(3))
            groups.append(
                AgreementGroup.NONE if rng.random() < 0.3 else AgreementGroup.FULL
            )
            preds.append(dist(*p))
        maxp_curve, ent_curve, aupr_maxp, aupr_ent = detect_report(groups, preds)
        positives = [g != AgreementGroup.NONE for g in groups]
        assert aupr_maxp == pytest.approx(
            brute_force_average_precision([max_p(p) for p in preds], positives, True),
            abs=1e-9,
        )
        assert aupr_ent == pytest.approx(
            brute_force_average_precision([entropy(p) for p in preds], positives, False),
            abs=1e-9,
        )
        assert maxp_curve == pr_curve([max_p(p) for p in preds], positives)
        assert ent_curve == pr_curve([entropy(p) for p in preds], positives,
                                     higher_is_positive=False)


class TestBuildReport:
    def _inputs(self):
        groups = [
            AgreementGroup.FULL,
            AgreementGroup.MAJORITY,
            AgreementGroup.NONE,
            AgreementGroup.MAJORITY,
        ]
        majorities = [0, 1, None, 0]
        softs = [dist(1.0, 0.0), dist(2 / 3, 1 / 3), dist(0.5, 0.5), dist(2 / 3, 1 / 3)]
        preds = [dist(0.9, 0.1), dist(0.4, 0.6), dist(0.5, 0.5), dist(0.8, 0.2)]
        return groups, majorities, softs, preds

    def test_field_ranges(self):
        report = build_report(*self._inputs())
        assert 0.0 <= report.wa <= 1.0
        assert 0.0 <= report.ua <= 1.0
        assert 0.0 <= report.mean_entropy <= math.log(2.0) + 1e-12
        assert report.mean_kl >= 0.0

    def test_unequal_lengths_rejected(self):
        groups, majorities, softs, preds = self._inputs()
        with pytest.raises(ValueError, match="^all inputs must be equal-length and non-empty$"):
            build_report(groups, majorities, softs, preds[:3])

    def test_wa_ua_only_on_majority_groups(self):
        report = build_report(*self._inputs())
        # Scored: FULL (ref 0, pred 0), MAJORITY (ref 1, pred 1), MAJORITY (ref 0, pred 0).
        assert report.wa == pytest.approx(1.0)
        assert report.ua == pytest.approx(1.0)

    def test_group_counts_partition(self):
        report = build_report(*self._inputs())
        assert sum(g.count for g in report.per_group.values()) == 4
        assert report.per_group[AgreementGroup.NONE].wa is None

    def test_group_means(self):
        groups, majorities, softs, preds = self._inputs()
        report = build_report(groups, majorities, softs, preds)
        none_entropy = entropy(preds[2])
        assert report.per_group[AgreementGroup.NONE].mean_entropy == pytest.approx(
            none_entropy
        )

    @pytest.mark.parametrize("batch", [np.asarray, CategoricalDist])
    def test_list_and_batch_inputs_agree(self, batch):
        rng = np.random.default_rng(4)
        n = 200
        groups = [list(AgreementGroup)[i] for i in rng.integers(0, 3, size=n)]
        majorities = [None if g == AgreementGroup.NONE else int(rng.integers(0, 3))
                      for g in groups]
        softs = [dist(*p) for p in rng.dirichlet(np.ones(3), size=n)]
        preds = [dist(*p) for p in rng.dirichlet(np.ones(3) * 2, size=n)]
        stacked_preds = batch(np.stack([p.p for p in preds]))
        batched = build_report(np.array(groups, dtype=object),
                               np.array([-1 if m is None else m for m in majorities]),
                               batch(np.stack([s.p for s in softs])), stacked_preds)
        assert batched == build_report(groups, majorities, softs, preds)
        assert detect_report(groups, stacked_preds) == detect_report(groups, preds)
        codes = np.array(groups, dtype=np.int8)  # as agreement returns them
        assert build_report(codes, majorities, softs, stacked_preds) == batched
        assert detect_report(codes, stacked_preds) == detect_report(groups, preds)

    def test_missing_class_fields_are_none(self):
        groups, majorities, softs, preds = self._inputs()
        unanimous = build_report([AgreementGroup.FULL] * 4, [0, 1, 1, 0], softs, preds)
        assert (unanimous.aupr_maxp, unanimous.aupr_ent) == (None, None)
        assert unanimous.wa == pytest.approx(0.75)
        split = build_report([AgreementGroup.NONE] * 4, [None] * 4, softs, preds)
        assert (split.wa, split.ua, split.aupr_maxp, split.aupr_ent) == (None,) * 4
        assert split.per_group[AgreementGroup.NONE].count == 4
        with pytest.raises(ValueError, match="no utterance with a majority label"):
            detect_report([AgreementGroup.NONE] * 4, preds)
        with pytest.raises(ValueError, match="no utterance without a majority label"):
            detect_report([AgreementGroup.FULL] * 4, preds)

    def test_predicted_class_tie_breaks_low(self):
        assert predicted_class(dist(0.4, 0.4, 0.2)) == 0
