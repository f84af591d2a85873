"""Multi-annotator evaluations: expansion to one-hot labels, agreement
groups, majority votes, soft labels, label smoothing and vote-and-replace."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .dirichlet import CategoricalDist

__all__ = [
    "AgreementGroup",
    "ClassSpace",
    "Evaluation",
    "AnnotationSet",
    "expand",
    "vote_matrix",
    "agreement",
    "classify_agreement",
    "soft_label",
    "smooth_label",
    "vote_and_replace",
]


class AgreementGroup(Enum):
    """Agreement level of one utterance's annotations."""

    FULL = "full"          # every annotator voted for the same class
    MAJORITY = "majority"  # a unique plurality of >= 2 annotators
    NONE = "none"          # tied plurality, or no class with >= 2 votes


@dataclass(frozen=True)
class ClassSpace:
    """Ordered, fixed set of class names; index order is canonical."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise ValueError("a class space needs at least two classes")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")

    @property
    def k(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown class name: {name!r}") from None


@dataclass(frozen=True)
class Evaluation:
    """One annotator's tag set, stored as sorted unique class indices."""

    tags: tuple[int, ...]

    def __post_init__(self) -> None:
        tags = tuple(self.tags)
        if len(tags) == 0:
            raise ValueError("an evaluation must contain at least one tag")
        if len(set(tags)) != len(tags):
            raise ValueError("duplicate tags in evaluation")
        object.__setattr__(self, "tags", tuple(sorted(tags)))


def _check_evaluations(evaluations: Sequence[Evaluation], space: ClassSpace) -> None:
    if len(evaluations) == 0:
        raise ValueError("at least one evaluation is required")
    for ev in evaluations:
        for tag in ev.tags:
            if not 0 <= tag < space.k:
                raise ValueError(f"tag index {tag} outside class space of size {space.k}")


def expand(evaluations: Sequence[Evaluation], space: ClassSpace) -> list[np.ndarray]:
    """One one-hot label per tag, in annotator order then tag-index order."""
    _check_evaluations(evaluations, space)
    return list(np.eye(space.k)[[tag for ev in evaluations for tag in ev.tags]])


def vote_matrix(
    evaluation_sets: Sequence[Sequence[Evaluation]], space: ClassSpace
) -> tuple[np.ndarray, np.ndarray]:
    """(n, K) vote counts and (n,) annotator counts of n utterances.

    Tags are unique within an evaluation, so a class's vote count is also
    its number of one-hot labels.
    """
    for evaluations in evaluation_sets:
        _check_evaluations(evaluations, space)
    n = len(evaluation_sets)
    annotators = np.array([len(evs) for evs in evaluation_sets], dtype=np.int64)
    tags_per_eval = [len(ev.tags) for evs in evaluation_sets for ev in evs]
    tags = np.array([t for evs in evaluation_sets for ev in evs for t in ev.tags], dtype=np.int64)
    rows = np.repeat(np.repeat(np.arange(n), annotators), tags_per_eval)
    counts = np.bincount(rows * space.k + tags, minlength=n * space.k).reshape(n, space.k)
    return counts, annotators


_GROUPS = np.array(list(AgreementGroup), dtype=object)  # FULL, MAJORITY, NONE


def agreement(counts: np.ndarray, annotators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Agreement groups (n,) and majority classes (n,), -1 where there is none.

    FULL requires exactly one class voted by every annotator; MAJORITY a
    unique plurality with at least two votes; anything else is NONE.
    """
    counts = np.asarray(counts)
    top = counts.max(axis=1)
    unique = np.count_nonzero(counts == top[:, None], axis=1) == 1
    full = unique & (top == np.asarray(annotators))
    has_majority = full | (unique & (top >= 2))
    groups = _GROUPS[np.where(full, 0, np.where(has_majority, 1, 2))]
    return groups, np.where(has_majority, counts.argmax(axis=1), -1)


def classify_agreement(
    evaluations: Sequence[Evaluation], space: ClassSpace
) -> tuple[AgreementGroup, Optional[int]]:
    """Agreement group plus the majority class (None for the NONE group):
    :func:`agreement` on a batch of one."""
    groups, majority = agreement(*vote_matrix([evaluations], space))
    return groups[0], None if majority[0] < 0 else int(majority[0])


@dataclass(frozen=True)
class AnnotationSet:
    """All evaluations of one utterance together with derived views."""

    evaluations: tuple[Evaluation, ...]
    space: ClassSpace

    def __post_init__(self) -> None:
        object.__setattr__(self, "evaluations", tuple(self.evaluations))
        _check_evaluations(self.evaluations, self.space)

    @property
    def labels(self) -> list[np.ndarray]:
        return expand(self.evaluations, self.space)

    @property
    def num_labels(self) -> int:
        return sum(len(ev.tags) for ev in self.evaluations)

    @property
    def group(self) -> AgreementGroup:
        return classify_agreement(self.evaluations, self.space)[0]

    @property
    def majority(self) -> Optional[int]:
        return classify_agreement(self.evaluations, self.space)[1]


def soft_label(labels: Sequence[np.ndarray]) -> CategoricalDist:
    """Mean of the one-hot labels: the relative class frequencies."""
    if len(labels) == 0:
        raise ValueError("soft_label requires at least one label")
    return CategoricalDist(np.mean(np.asarray(labels, dtype=np.float64), axis=0))


def smooth_label(label: np.ndarray, eps1: float) -> CategoricalDist:
    """Smooth a one-hot label: target class 1-(K-1)*eps1, others eps1."""
    label = np.asarray(label, dtype=np.float64)
    k = label.shape[0]
    if not 0.0 <= eps1 < 1.0 / (k - 1):
        raise ValueError(f"eps1 must lie in [0, 1/(K-1)) = [0, {1.0 / (k - 1):g})")
    if eps1 == 0.0:
        return CategoricalDist(label.copy())
    target = int(np.argmax(label))
    smoothed = np.full(k, eps1)
    smoothed[target] = 1.0 - (k - 1) * eps1
    return CategoricalDist(smoothed)


def vote_and_replace(
    evaluation_sets: Sequence[Sequence[Evaluation]], space: ClassSpace
) -> list[tuple[Evaluation, ...]]:
    """The evaluations of n utterances after vote-and-replace.

    An utterance with a majority class gets M single-tag evaluations of it,
    M being its number of labels; any other keeps its evaluations.
    """
    counts, annotators = vote_matrix(evaluation_sets, space)
    _, majority = agreement(counts, annotators)
    single = [(Evaluation((c,)),) for c in range(space.k)]
    return [tuple(evs) if major < 0 else single[major] * int(n_labels)
            for evs, major, n_labels in zip(evaluation_sets, majority, counts.sum(axis=1))]
