"""Multi-annotator evaluations: vote counts, agreement groups, majority
votes and soft labels."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .dirichlet import CategoricalDist

__all__ = [
    "AgreementGroup",
    "ClassSpace",
    "AnnotationSet",
    "ordered_tags",
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


def ordered_tags(tags, tags_per_eval, annotators, k: int) -> np.ndarray:
    """The flat tag layout's tags, each evaluation's in class order: the one check
    of the evaluation rules.  A length that disagrees with the counts (tags with
    ``tags_per_eval.sum()``, evaluations with ``annotators.sum()``), a record with no
    evaluation, an evaluation with no tag, a class outside [0, k) or one an
    evaluation repeats raises ValueError."""
    tags, tags_per_eval = np.array(tags, dtype=np.int64), np.asarray(tags_per_eval)
    annotators = np.asarray(annotators)
    if (annotators < 1).any():
        raise ValueError("at least one evaluation is required")
    if len(tags_per_eval) != annotators.sum():
        raise ValueError(f"{len(tags_per_eval)} evaluations where annotators sums to "
                         f"{annotators.sum()}")
    if (tags_per_eval < 1).any():
        raise ValueError("an evaluation must contain at least one tag")
    if len(tags) != tags_per_eval.sum():
        raise ValueError(f"{len(tags)} tags where tags_per_eval sums to {tags_per_eval.sum()}")
    if (outside := (tags < 0) | (tags >= k)).any():
        raise ValueError(f"class indices {np.unique(tags[outside]).tolist()} are outside [0, {k})")
    # Sorted, these keys list each evaluation's classes in class order, a repeat by its twin.
    # Keys that already rise strictly, as the writer's class order gives, need no sort.
    keys = np.repeat(np.arange(len(tags_per_eval)) * k, tags_per_eval) + tags
    if (keys[1:] > keys[:-1]).all():
        return tags
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("duplicate tags in evaluation")
    return keys % k


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
    """All evaluations of one utterance, each a sequence of class indices
    stored in class order, with the vote ``counts``, agreement ``group`` and
    ``majority`` (None without one) derived once."""

    evaluations: tuple[tuple[int, ...], ...]
    space: ClassSpace
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    group: AgreementGroup = field(init=False)
    majority: Optional[int] = field(init=False)

    def __post_init__(self) -> None:
        per_eval = np.array(list(map(len, self.evaluations)), dtype=np.int64)
        annotators = np.array([len(per_eval)])
        tags = ordered_tags(list(chain.from_iterable(self.evaluations)), per_eval, annotators,
                            self.space.k)
        evaluations = tuple(map(tuple, next(tag_lists(tags, per_eval, annotators))))
        counts = tag_counts(tags, per_eval, annotators, self.space.k)
        groups, majority = agreement(counts, annotators)
        object.__setattr__(self, "evaluations", evaluations)
        object.__setattr__(self, "counts", counts[0])
        object.__setattr__(self, "group", AgreementGroup(groups[0]))
        object.__setattr__(self, "majority", None if majority[0] < 0 else int(majority[0]))

    @property
    def labels(self) -> list[np.ndarray]:
        """One one-hot label per tag, grouped by class."""
        return list(np.repeat(np.eye(self.space.k), self.counts, axis=0))


def soft_label(labels: Sequence[np.ndarray]) -> CategoricalDist:
    """Mean of the one-hot labels: the relative class frequencies."""
    if len(labels) == 0:
        raise ValueError("soft_label requires at least one label")
    return CategoricalDist(np.mean(np.asarray(labels, dtype=np.float64), axis=0))

