"""Seeded synthetic corpus generator.

Each utterance gets an ambiguity regime, a dominant class, a true label
distribution sampled from a Dirichlet whose precision depends on the
regime, annotator tags sampled from that distribution, and features built
from orthogonal class centroids plus Gaussian noise.  Every utterance owns
an independent random stream keyed by (seed, utterance id), so corpora are
reproducible and utterance i is the same whatever n is.  ``generate_columns``
writes the corpus straight into columns, in the flat tag layout every other
layer counts from: it draws each utterance in stream order, then picks the
tags of a block of utterances at once from the uniforms drawn.  ``corpus``
is those columns as the split ``Corpus`` that ``gen`` writes, and
``generate`` is a per-utterance view of them.
"""

from __future__ import annotations

import bisect
import math
import operator
import string
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import rng
from .annotations import AgreementGroup, ClassSpace, tag_lists
from .dataio import Corpus

__all__ = ["SynthConfig", "SynthUtterance", "CorpusStats", "default_class_names",
           "generate_columns", "corpus", "generate", "count_stats"]


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings.

    ``group_mix`` gives the probabilities of the (low, medium, high)
    ambiguity regimes and ``regime_precisions`` the matching Dirichlet
    precisions; the defaults mirror a three-annotator corpus where roughly
    a quarter of utterances are unanimous and a quarter have no majority.
    Left out, the precisions are (120, 12, 5), each raised to k where it is
    below k: precision k is the flat Dirichlet, as 5 is at k = 5.
    """

    n: int
    k: int = 5
    d: int = 16
    annotators: int = 3
    seed: int = 0
    group_mix: tuple[float, float, float] = (0.237, 0.513, 0.250)
    regime_precisions: tuple[float, float, float] | None = None
    multi_tag_prob: float = 0.04
    noise_sigma: float = 0.1
    test_frac: float = 0.2  # the share of utterances, the last ones, in the test split

    def __post_init__(self) -> None:
        # TrainConfig's rule: no bool passes for a number, and the counts and seed are ints.
        numbers = (self.n, self.k, self.d, self.annotators, self.seed, *self.group_mix,
                   *(self.regime_precisions or ()), self.multi_tag_prob, self.noise_sigma,
                   self.test_frac)
        if any(isinstance(v, (bool, np.bool_)) for v in numbers):
            raise ValueError(f"SynthConfig numbers must not be bool, got {numbers}")
        for name in ("n", "k", "d", "annotators", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "group_mix", tuple(float(v) for v in self.group_mix))
        precisions = self.regime_precisions
        if precisions is None:
            precisions = (max(a0, self.k) for a0 in (120.0, 12.0, 5.0))
        object.__setattr__(self, "regime_precisions", tuple(float(v) for v in precisions))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.k > self.d:
            raise ValueError(f"k = {self.k} classes need d >= k feature dimensions, got d = {self.d}")
        if self.annotators < 1:
            raise ValueError("need at least one annotator")
        if len(self.group_mix) != 3 or not all(0.0 <= v < math.inf for v in self.group_mix):
            raise ValueError(f"group_mix must be three finite probabilities >= 0: {self.group_mix}")
        if abs(sum(self.group_mix) - 1.0) > 1e-9:
            raise ValueError("group_mix must sum to 1")
        if len(self.regime_precisions) != 3:
            raise ValueError("regime_precisions must have three entries")
        if not all(self.k - 1 < a0 < math.inf for a0 in self.regime_precisions):
            raise ValueError(f"regime_precisions must be finite and > k - 1: {self.regime_precisions}")
        if not 0.0 <= self.multi_tag_prob < 1.0:
            raise ValueError("multi_tag_prob must lie in [0, 1)")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.test_frac <= 1.0:
            raise ValueError("test-frac must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class SynthUtterance:
    """One generated utterance; ``true_mu`` is its (K,) true label distribution
    and each evaluation a tuple of class indices in class order."""

    uid: int
    true_mu: np.ndarray
    features: np.ndarray
    evaluations: tuple[tuple[int, ...], ...]


def default_class_names(k: int) -> tuple[str, ...]:
    """Single letters A, B, C, ... while they last, then c26, c27, ..."""
    letters = string.ascii_uppercase
    return tuple(letters[i] if i < len(letters) else f"c{i}" for i in range(k))


_BLOCK = 256  # utterances whose tags are picked at a time, so peak memory stays flat


def _sample_rows(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # bisect_right of u[i] * total in each row's running sums, capped at K - 1:
    # the sums never fall, so it is the count of sums at or below the target.
    cum = np.cumsum(weights, axis=1)
    below = np.count_nonzero(cum <= (u * cum[:, -1])[:, None], axis=1)
    return np.minimum(below, weights.shape[1] - 1)


def generate_columns(config: SynthConfig) -> tuple[np.ndarray, ...]:
    """The corpus as columns in id order, deterministic given the config:
    (n, d) features, (n, K) true label distributions, and ``Corpus``'s flat
    tag layout (the class of every tag, in class order within each
    evaluation as ``read_dataset`` stores it; the tags of every evaluation;
    the evaluations of every utterance)."""
    n, k, annotators, p = config.n, config.k, config.annotators, config.multi_tag_prob
    regime_cum = list(accumulate(config.group_mix))
    # Unit base concentration everywhere, remaining precision on the
    # dominant class; at precision k this degenerates to the flat Dirichlet
    # and for precision -> inf the mean approaches the dominant one-hot.
    alphas = np.ones((3, k, k))
    alphas[:, range(k), range(k)] = np.subtract(config.regime_precisions, k - 1)[:, None]
    features, noise = np.zeros((n, config.d)), np.zeros((n, config.d))
    tags, tags_per_eval = [], []
    streams = rng.streams(config.seed, rng.DOMAIN_UTTERANCE, range(n))
    for start in range(0, n, _BLOCK):
        uniforms, at = [], []  # the block's tag uniforms, and where each annotator's begin
        for uid, gen in zip(range(start, min(start + _BLOCK, n)), streams):
            # Draw order is fixed: regime, dominant class, true distribution,
            # per-annotator tags, then feature noise.
            regime = min(bisect.bisect_right(regime_cum, gen.random() * regime_cum[-1]), 2)
            features[uid, :k] = gen.dirichlet(alphas[regime, gen.integers(k)])
            # Each annotator takes two uniforms, three with a second tag. Drawing
            # two per annotator ahead and one more per second tag takes exactly
            # those, so the feature noise that follows is drawn as before.
            i = len(uniforms)
            uniforms += gen.random(2 * annotators).tolist()
            for _ in range(annotators):
                at.append(i)
                if uniforms[i + 1] < p:
                    uniforms.append(gen.random())
                    i += 1
                i += 2
            if config.noise_sigma > 0.0:
                gen.standard_normal(out=noise[uid])
        uniforms, at = np.array(uniforms), np.array(at)
        weights = np.repeat(features[start:uid + 1, :k], annotators, axis=0)
        first = _sample_rows(uniforms[at], weights)
        multi, second = uniforms[at + 1] < p, first.copy()
        # When no other class has mass the draw can land on ``first``.
        second[multi] = _sample_rows(uniforms[at[multi] + 2], np.where(
            np.arange(k) == first[multi][:, None], 0.0, weights[multi]))
        two = second != first
        pairs = np.sort(np.stack([first, second], axis=1))
        tags.append(pairs[np.stack([np.ones_like(two), two], axis=1)])
        tags_per_eval.append(1 + two)
    mu = features[:, :k]
    true_mu = mu / mu.sum(axis=1, keepdims=True)
    if config.noise_sigma > 0.0:
        with np.errstate(over="ignore"):  # checked below
            features += config.noise_sigma * noise
        if not (finite := np.isfinite(features).all(axis=1)).all():
            raise OverflowError(f"utterance {finite.argmin()}: features overflow")
    return (features, true_mu, np.concatenate(tags).astype(np.int64),
            np.concatenate(tags_per_eval).astype(np.int64), np.full(n, annotators, dtype=np.int64))


def corpus(config: SynthConfig) -> tuple[ClassSpace, Corpus]:
    """The class space and the ``Corpus`` of ``generate_columns``, ids 0 to n - 1,
    with the first ``round(n * (1 - test_frac))`` utterances in the train split."""
    features, _, *layout = generate_columns(config)
    n_train = round(config.n * (1.0 - config.test_frac))
    return ClassSpace(default_class_names(config.k)), Corpus.from_tags(
        list(range(config.n)), np.arange(config.n) < n_train, features, *layout, config.k)


def generate(config: SynthConfig) -> tuple[list[SynthUtterance], ClassSpace]:
    """The corpus of ``generate_columns`` as one ``SynthUtterance`` per id."""
    features, true_mu, *layout = generate_columns(config)
    rows = zip(true_mu, features, tag_lists(*layout))
    return ([SynthUtterance(uid, mu, x, tuple(map(tuple, evs)))
             for uid, (mu, x, evs) in enumerate(rows)], ClassSpace(default_class_names(config.k)))


@dataclass(frozen=True)
class CorpusStats:
    n_utterances: int
    n_evaluations: int
    n_multi_tag_evaluations: int
    n_utterances_extra_labels: int
    avg_labels_per_utterance: float
    group_counts: dict[AgreementGroup, int]

    def format_table(self) -> str:
        rows = [
            ("Number of total utterances", f"{self.n_utterances}"),
            ("Number of total evaluations", f"{self.n_evaluations}"),
            ("Evaluations with more than one label", f"{self.n_multi_tag_evaluations}"),
            ("Utterances with extra labels", f"{self.n_utterances_extra_labels}"),
            ("Average number of labels per utterance", f"{self.avg_labels_per_utterance:.2f}"),
            ("Number of full-agreement utterances", f"{self.group_counts[AgreementGroup.FULL]}"),
            ("Number of majority-agreement utterances", f"{self.group_counts[AgreementGroup.MAJORITY]}"),
            ("Number of no-agreement utterances", f"{self.group_counts[AgreementGroup.NONE]}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def count_stats(corpus) -> CorpusStats:
    """Corpus-level label statistics, in the usual table schema, of a
    ``dataio.Corpus``."""
    if len(corpus) == 0:
        raise ValueError("stats requires a non-empty corpus")
    n_labels = corpus.counts.sum(axis=1)
    return CorpusStats(
        n_utterances=len(corpus),
        n_evaluations=int(corpus.annotators.sum()),
        n_multi_tag_evaluations=int(np.count_nonzero(corpus.tags_per_eval > 1)),
        n_utterances_extra_labels=int(np.count_nonzero(n_labels > corpus.annotators)),
        avg_labels_per_utterance=int(n_labels.sum()) / len(corpus),
        group_counts=dict(zip(AgreementGroup, np.bincount(corpus.groups, minlength=3).tolist())),
    )
