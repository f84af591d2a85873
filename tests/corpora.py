"""Shared test helper: a ``Corpus`` from records written as nested lists."""

import numpy as np

from labelprior.annotations import Corpus


def corpus_of(evaluations, k=3, features=None, train=None, ids=None):
    """The corpus of records given as lists of evaluations, each a list of
    class indices, which ``Corpus.from_tags`` puts in class order as the
    reader stores them.
    By default every record has k zero features, is in the train split and
    has its position as id."""
    n = len(evaluations)
    return Corpus.from_tags(
        list(range(n)) if ids is None else list(ids),
        np.ones(n, dtype=bool) if train is None else np.asarray(train, dtype=bool),
        np.zeros((n, k)) if features is None else np.asarray(features, dtype=np.float64),
        np.array([t for evs in evaluations for ev in evs for t in ev], dtype=np.int64),
        np.array([len(ev) for evs in evaluations for ev in evs], dtype=np.int64),
        np.array([len(evs) for evs in evaluations], dtype=np.int64),
        k,
    )
