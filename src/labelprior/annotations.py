"""Multi-annotator evaluations: vote counts, agreement groups, majority votes and
soft labels, and the ``Corpus`` and ``LabelledExample`` rows whose labels they derive."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from enum import IntEnum
from itertools import chain, compress, islice
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
    "LabelledExample",
    "Corpus",
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


@dataclass(frozen=True, eq=False)
class LabelledExample:
    """One training utterance: features plus every label view of it."""

    features: np.ndarray
    labels: tuple[np.ndarray, ...]
    soft: CategoricalDist
    group: AgreementGroup
    majority: Optional[int]
    uid: int = -1


@dataclass(frozen=True, eq=False)
class Corpus:
    """A dataset's records as columns, one row per record in file order.

    ``tags`` holds the class index of every tag, in class order within each
    evaluation whatever the file's order, ``tags_per_eval`` the number of
    tags of every evaluation and ``annotators`` the number of evaluations of
    every record; ``annotations.tag_lists`` turns them back into lists.
    ``from_tags`` checks and orders them and derives the vote ``counts``, and
    the ``groups`` (int8 codes) and ``majority`` of their agreement;
    ``replace_majorities`` sets them by the vote-and-replace rule.
    """

    ids: list[int]
    train: np.ndarray          # (n,) bool, False for the test split
    features: np.ndarray       # (n, d) float64
    counts: np.ndarray         # (n, K) votes per class
    annotators: np.ndarray     # (n,)
    groups: np.ndarray         # (n,) int8 AgreementGroup codes
    majority: np.ndarray       # (n,) class index, -1 where there is none
    tags: np.ndarray
    tags_per_eval: np.ndarray

    @classmethod
    def from_tags(cls, ids, train, features, tags, tags_per_eval, annotators, k: int) -> Corpus:
        """The corpus of the flat tag layout over ``k`` classes, its tags checked
        and ordered by ``annotations.ordered_tags``: one count of the tags and
        one agreement call derive every other column.  ``ids``, ``train`` and
        ``features`` need one row per record, or ValueError is raised."""
        if not len(ids) == len(train) == len(features) == len(annotators):
            raise ValueError(f"{len(ids)} ids, {len(train)} splits and {len(features)} feature "
                             f"rows for {len(annotators)} records")
        tags = ordered_tags(tags, tags_per_eval, annotators, k)
        counts = tag_counts(tags, tags_per_eval, annotators, k)
        groups, majority = agreement(counts, annotators)
        return cls(ids=ids, train=train, features=features, counts=counts, annotators=annotators,
                   groups=groups, majority=majority, tags=tags, tags_per_eval=tags_per_eval)

    def __len__(self) -> int:
        return len(self.ids)

    # Indexing builds one row on demand for per-row callers, and iterating
    # indexes until IndexError; model.train reads the columns.
    def __getitem__(self, i: int) -> LabelledExample:
        try:
            i = operator.index(i)
        except TypeError:
            raise TypeError("Corpus indices must be integers; select takes a boolean mask") from None
        counts = self.counts[i]
        major = int(self.majority[i])
        return LabelledExample(
            features=self.features[i],
            labels=tuple(np.repeat(np.eye(len(counts)), counts, axis=0)),
            soft=CategoricalDist(counts / counts.sum()),
            group=AgreementGroup(self.groups[i]),
            majority=None if major < 0 else major,
            uid=self.ids[i],
        )

    def select(self, rows: np.ndarray) -> Corpus:
        """The records a boolean (n,) mask selects, in order."""
        if getattr(rows, "dtype", None) != bool or rows.shape != (len(self),):
            raise ValueError(f"select takes a boolean mask of shape ({len(self)},)")
        evals = np.repeat(rows, self.annotators)
        return Corpus(
            ids=list(compress(self.ids, rows.tolist())),
            train=self.train[rows],
            features=self.features[rows],
            counts=self.counts[rows],
            annotators=self.annotators[rows],
            groups=self.groups[rows],
            majority=self.majority[rows],
            tags=self.tags[np.repeat(evals, self.tags_per_eval)],
            tags_per_eval=self.tags_per_eval[evals],
        )

    def replace_majorities(self) -> Corpus:
        """Vote-and-replace: a record with a majority class gets M single-tag
        evaluations of it, M being its number of tags, and so becomes FULL;
        the records without one are kept as they are."""
        kept, m = self.majority < 0, self.counts.sum(axis=1)
        kept_evals = np.repeat(kept, self.annotators)
        one_hot = np.arange(self.counts.shape[1]) == self.majority[:, None]
        return replace(
            self,
            counts=np.where(kept[:, None], self.counts, m[:, None] * one_hot),
            annotators=np.where(kept, self.annotators, m),
            groups=np.where(kept, self.groups, np.int8(AgreementGroup.FULL)),
            # Every record keeps its M tags, so each keeps its offsets.
            tags=np.where(np.repeat(kept, m), self.tags, np.repeat(self.majority, m)),
            # A replaced evaluation of t tags becomes t evaluations of one tag.
            tags_per_eval=np.repeat(np.where(kept_evals, self.tags_per_eval, 1),
                                    np.where(kept_evals, 1, self.tags_per_eval)),
        )


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

