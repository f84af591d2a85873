"""Multi-annotator evaluations: vote counts, agreement groups, majority
votes and soft labels."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .dirichlet import CategoricalDist

__all__ = [
    "AgreementGroup",
    "ClassSpace",
    "Evaluation",
    "AnnotationSet",
    "vote_matrix",
    "tag_counts",
    "tag_lists",
    "agreement",
    "soft_label",
]


class AgreementGroup(IntEnum):
    """Agreement level of one utterance's annotations; each member is its int8 code."""

    FULL = 0      # every annotator voted for the same class
    MAJORITY = 1  # a unique plurality of >= 2 annotators
    NONE = 2      # tied plurality, or no class with >= 2 votes


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


def vote_matrix(
    evaluation_sets: Sequence[Sequence[Evaluation]], space: ClassSpace
) -> tuple[np.ndarray, np.ndarray]:
    """(n, K) vote counts and (n,) annotator counts of n utterances.

    Tags are unique within an evaluation, so a class's vote count is also
    its number of one-hot labels.
    """
    for evaluations in evaluation_sets:
        _check_evaluations(evaluations, space)
    annotators = np.array([len(evs) for evs in evaluation_sets], dtype=np.int64)
    tags_per_eval = [len(ev.tags) for evs in evaluation_sets for ev in evs]
    tags = np.array([t for evs in evaluation_sets for ev in evs for t in ev.tags], dtype=np.int64)
    return tag_counts(tags, tags_per_eval, annotators, space.k), annotators


def tag_counts(tags: np.ndarray, tags_per_eval, annotators, k: int) -> np.ndarray:
    """(n, K) vote counts from the flat tag layout: the class index of every
    tag, the number of tags of every evaluation and the number of
    evaluations of every utterance."""
    n = len(annotators)
    rows = np.repeat(np.repeat(np.arange(n), annotators), tags_per_eval)
    return np.bincount(rows * k + tags, minlength=n * k).reshape(n, k)


def tag_lists(tags: np.ndarray, tags_per_eval: np.ndarray,
              annotators: np.ndarray) -> Iterator[list[list[int]]]:
    """Each utterance's evaluations as lists of class indices, rebuilt from
    the same flat tag layout one utterance at a time."""
    tags, per_eval = iter(tags.tolist()), iter(tags_per_eval.tolist())
    return ([list(islice(tags, m)) for m in islice(per_eval, a)] for a in annotators.tolist())


def agreement(counts: np.ndarray, annotators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n,) int8 agreement group codes and (n,) majority classes, -1 where there is none.

    FULL requires exactly one class voted by every annotator; MAJORITY a
    unique plurality with at least two votes; anything else is NONE.
    """
    counts = np.asarray(counts)
    top = counts.max(axis=1)
    unique = np.count_nonzero(counts == top[:, None], axis=1) == 1
    full = unique & (top == np.asarray(annotators))
    has_majority = full | (unique & (top >= 2))
    groups = np.where(full, 0, np.where(has_majority, 1, 2)).astype(np.int8)
    return groups, np.where(has_majority, counts.argmax(axis=1), -1)


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
        """One one-hot label per tag, grouped by class."""
        counts = vote_matrix([self.evaluations], self.space)[0][0]
        return list(np.repeat(np.eye(self.space.k), counts, axis=0))

    @property
    def group(self) -> AgreementGroup:
        return AgreementGroup(agreement(*vote_matrix([self.evaluations], self.space))[0][0])

    @property
    def majority(self) -> Optional[int]:
        major = agreement(*vote_matrix([self.evaluations], self.space))[1][0]
        return None if major < 0 else int(major)


def soft_label(labels: Sequence[np.ndarray]) -> CategoricalDist:
    """Mean of the one-hot labels: the relative class frequencies."""
    if len(labels) == 0:
        raise ValueError("soft_label requires at least one label")
    return CategoricalDist(np.mean(np.asarray(labels, dtype=np.float64), axis=0))

