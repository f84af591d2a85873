"""Accuracy, distribution-quality and uncertainty metrics, PR curves and
the per-group evaluation report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .annotations import AgreementGroup

__all__ = [
    "PRCurve",
    "GroupMetrics",
    "MetricsReport",
    "wa_ua",
    "max_p",
    "entropy",
    "kl_divergence",
    "pr_curve",
    "aupr",
    "detect_report",
    "predicted_class",
    "build_report",
]


@dataclass(frozen=True, eq=False)
class PRCurve:
    """Precision-recall points swept over every distinct score: one (n, 3)
    float64 row of (threshold, precision, recall) per point.  Any (n, 3)
    sequence converts; two curves are equal when their points are."""

    points: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {points.shape}")
        object.__setattr__(self, "points", points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PRCurve):
            return NotImplemented
        return np.array_equal(self.points, other.points)


@dataclass(frozen=True)
class GroupMetrics:
    count: int
    mean_maxp: float
    mean_entropy: float
    mean_kl: float
    wa: Optional[float]
    ua: Optional[float]


@dataclass(frozen=True)
class MetricsReport:
    """The evaluation report; a field is None where its utterances are missing."""

    wa: Optional[float]
    ua: Optional[float]
    mean_kl: float
    mean_entropy: float
    aupr_maxp: Optional[float]
    aupr_ent: Optional[float]
    per_group: dict[AgreementGroup, GroupMetrics]


def wa_ua(refs: Sequence[int], preds: Sequence[int], k: int) -> tuple[float, float]:
    """Overall accuracy and the mean per-class recall over classes present."""
    refs = np.asarray(refs, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if refs.shape[0] == 0 or refs.shape != preds.shape:
        raise ValueError("refs and preds must be equal-length and non-empty")
    totals = np.bincount(refs, minlength=k)
    hits = np.bincount(refs[refs == preds], minlength=k)
    present = totals > 0
    return float(np.mean(refs == preds)), float(np.mean(hits[present] / totals[present]))


# Every score below takes one distribution or a batch: a CategoricalDist, a
# list of them or an array, reduced along the last (class) axis.


def max_p(dist) -> float | np.ndarray:
    """Probability of the predicted class."""
    return np.asarray(dist, dtype=np.float64).max(axis=-1)


def entropy(dist) -> float | np.ndarray:
    """Shannon entropy in nats, with 0*ln(0) = 0 and +0.0 for a one-hot."""
    p = np.asarray(dist, dtype=np.float64)
    return 0.0 - np.sum(p * np.log(p, where=p > 0.0, out=np.zeros(p.shape)), axis=-1)


def kl_divergence(target, pred) -> float | np.ndarray:
    """KL(target || pred); +inf where pred is 0 on target support."""
    t = np.asarray(target, dtype=np.float64)
    q = np.asarray(pred, dtype=np.float64)
    if t.shape != q.shape:
        raise ValueError("dimension mismatch")
    pos = t > 0.0
    log_t = np.log(t, where=pos, out=np.zeros(t.shape))
    log_q = np.log(q, where=pos & (q > 0.0), out=np.zeros(q.shape))
    miss = np.any(pos & (q == 0.0), axis=-1)
    return np.where(miss, np.inf, np.sum(t * (log_t - log_q), axis=-1))[()]


def predicted_class(dist) -> int | np.ndarray:
    """Argmax with ties broken towards the lowest class index."""
    return np.argmax(np.asarray(dist, dtype=np.float64), axis=-1)


def pr_curve(
    scores: Sequence[float],
    is_positive: Sequence[bool],
    higher_is_positive: bool = True,
) -> PRCurve:
    """Sweep a threshold over every distinct score, grouping ties.

    Items are predicted positive when their score is at least (resp. at
    most) the threshold, depending on ``higher_is_positive``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(is_positive, dtype=bool)
    if scores.shape != positive.shape or scores.ndim != 1:
        raise ValueError("scores and is_positive must be parallel 1-d sequences")
    n_pos = int(positive.sum())
    if n_pos == 0 or n_pos == scores.shape[0]:
        raise ValueError("need at least one positive and one negative item")

    order = np.argsort(-scores if higher_is_positive else scores, kind="stable")
    sorted_scores = scores[order]
    # One point per tie group, at its first score, counting the whole group.
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    seen = np.r_[starts[1:], scores.shape[0]]
    tp = np.cumsum(positive[order])[seen - 1]
    return PRCurve(np.column_stack((sorted_scores[starts], tp / seen, tp / n_pos)))


def aupr(curve: PRCurve) -> float:
    """Average precision: sum of precision times recall increments."""
    precision, recall = curve.points[:, 1], curve.points[:, 2]
    # cumsum adds in order from 0, as a running total does.
    return float(np.cumsum(np.r_[0.0, np.diff(recall, prepend=0.0) * precision])[-1])


def detect_report(
    groups: Sequence[AgreementGroup], preds
) -> tuple[PRCurve, PRCurve, float, float]:
    """PR analysis for detecting confidently-labelled utterances.

    Utterances with a majority label (FULL or MAJORITY agreement) form the
    positive class; max probability scores positives high, entropy scores
    them low.  ``groups`` holds ``AgreementGroup`` members or their codes,
    ``preds`` a list of dists or an (N, K) array.
    """
    positive = np.asarray(groups) != AgreementGroup.NONE
    probs = np.asarray(preds, dtype=np.float64)
    if probs.ndim != 2 or len(positive) != len(probs) or len(probs) == 0:
        raise ValueError("groups and preds must be equal-length and non-empty")
    if positive.all() or not positive.any():
        missing = "without" if positive.all() else "with"
        raise ValueError(f"cannot detect no-majority utterances: no utterance {missing} "
                         "a majority label")
    maxp_curve = pr_curve(max_p(probs), positive)
    ent_curve = pr_curve(entropy(probs), positive, higher_is_positive=False)
    return maxp_curve, ent_curve, aupr(maxp_curve), aupr(ent_curve)


def build_report(
    groups: Sequence[AgreementGroup],
    majorities: Sequence[Optional[int]],
    soft_targets,
    preds,
) -> MetricsReport:
    """Assemble the full evaluation report, its ``per_group`` keyed by member.

    WA/UA cover only utterances with a majority label; KL, entropy and the
    detection AUPRs cover the whole set.  WA/UA are None when no utterance
    has a majority label, and the AUPRs when the set lacks either kind.
    Majorities are read only where the group has one (None or -1 elsewhere).
    ``groups`` holds members or codes, as in ``detect_report``.
    """
    groups = np.asarray(groups)
    majorities = np.asarray(majorities, dtype=np.float64)  # None becomes nan
    targets = np.asarray(soft_targets, dtype=np.float64)
    probs = np.asarray(preds, dtype=np.float64)
    n = len(groups)
    if not (n and n == len(majorities) == len(targets) == len(probs)):
        raise ValueError("all inputs must be equal-length and non-empty")
    k = probs.shape[-1]
    positive = groups != AgreementGroup.NONE
    pred_idx = predicted_class(probs)
    kls, ents, maxps = kl_divergence(targets, probs), entropy(probs), max_p(probs)

    def summary(mask: np.ndarray) -> GroupMetrics:
        if not mask.any():
            return GroupMetrics(0, float("nan"), float("nan"), float("nan"), None, None)
        scored = mask & positive
        wa, ua = (wa_ua(majorities[scored].astype(np.int64), pred_idx[scored], k)
                  if scored.any() else (None, None))
        return GroupMetrics(int(mask.sum()), float(np.mean(maxps[mask])),
                            float(np.mean(ents[mask])), float(np.mean(kls[mask])), wa, ua)

    aupr_maxp = aupr_ent = None
    if positive.any() and not positive.all():
        _, _, aupr_maxp, aupr_ent = detect_report(groups, probs)
    whole = summary(np.ones(n, dtype=bool))
    return MetricsReport(whole.wa, whole.ua, whole.mean_kl, whole.mean_entropy, aupr_maxp,
                         aupr_ent, {group: summary(groups == group) for group in AgreementGroup})
