from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from fairpair import pairwise
from fairpair.store import EmbeddingSet, LabelTable

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run, so a
# property test cannot fail on an example no earlier run drew
settings.register_profile("ci", derandomize=True, deadline=None, database=None)


def random_dataset(rng, n=None, d=None, g=None, m=None):
    """Random embedding set where every identity has at least one record."""
    n = n or int(rng.integers(8, 120))
    g = g or int(rng.integers(2, max(3, n // 2)))
    g = min(g, n)
    d = d or int(rng.integers(2, 24))
    m = m or int(rng.integers(1, 4))
    ident = np.concatenate([np.arange(g), rng.integers(0, g, size=n - g)])
    rng.shuffle(ident)
    id_attr = rng.integers(0, m, size=g)
    id_attr[np.arange(min(m, g))] = np.arange(min(m, g))  # keep every group inhabited
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    return EmbeddingSet(
        vectors=vecs,
        identity=ident.astype(np.int64),
        attribute=id_attr[ident],
        labels=LabelTable.default(g, m),
    )


def failing_open(writes):
    """An `open` whose files raise OSError on each write after their first `writes`,
    as on a disk that fills midway; patch it in as a module's global `open`."""
    def fake(*args, **kwargs):
        f = open(*args, **kwargs)
        write, done = f.write, [0]

        def limited(data):
            if done[0] >= writes:
                raise OSError("disk full")
            done[0] += 1
            return write(data)
        f.write = limited
        return f
    return fake


@contextmanager
def tile_size(tile):
    """Run the engine with `pairwise.TILE`, its one tile size, set to `tile`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairwise, "TILE", tile)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_set(rng):
    return random_dataset(rng, n=60, d=8, g=12, m=3)


# COLLECT_CAP, the most band entries the bracketed sweep holds, set relative to
# the rank k = allowed + 1 that solve_threshold seeks: None keeps the default,
# where the first band must fit; -1 sets a cap of 0, which no band fits under,
# so every round narrows until one exact key is left (a cap below k alone no
# longer forces that); 0 and 1 hold the band to k and k + 1 entries.
CAP_OFFSETS = [None, -1, 0, 1]


def overflowing_rounds(mp):
    """Make `mp` record, in the list returned, the key window (least, largest value)
    each round whose band passed the cap narrowed to (`pairwise._KeyBins.rank`)."""
    rank, runs = pairwise._KeyBins.rank, []

    def spy(self, need):
        runs.append(tuple(float(x) for x in rank(self, need)))
        return runs[-1]
    mp.setattr(pairwise._KeyBins, "rank", spy)
    return runs


def solve_at_cap(dataset, target_fpr, cap_offset, **kw):
    """solve_threshold with COLLECT_CAP set by `cap_offset`, asserting the route it
    forces: with None no band passes the cap, with -1 the rounds narrow until the
    last one's window is the threshold alone (no round at all on a degenerate
    target, which needs no selection)."""
    allowed = int(Fraction(target_fpr) * pairwise.ordered_pair_totals(dataset)[1])
    with pytest.MonkeyPatch.context() as mp:
        runs = overflowing_rounds(mp)
        if cap_offset is not None:
            mp.setattr(pairwise, "COLLECT_CAP", 0 if cap_offset == -1 else allowed + 1 + cap_offset)
        r = pairwise.solve_threshold(dataset, target_fpr, **kw)
    if cap_offset is None or r.degenerate:
        assert runs == []
    elif cap_offset == -1:
        assert runs[-1] == (r.threshold, r.threshold)
    return r
