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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_set(rng):
    return random_dataset(rng, n=60, d=8, g=12, m=3)


# COLLECT_CAP, the most band entries the bracketed sweep holds, set relative to
# the rank k = allowed + 1 that solve_threshold seeks: None keeps the default,
# where the bracketed sweep must solve; -1 forces the radix select with a cap of
# 0, which no band fits under (a cap below k alone no longer does); 0 and 1
# hold the band to k and k + 1 entries.
CAP_OFFSETS = [None, -1, 0, 1]


def radix_runs(mp):
    """Make `mp` record the rank k of each `pairwise._radix_select` call, in the list returned."""
    radix, runs = pairwise._radix_select, []
    mp.setattr(pairwise, "_radix_select", lambda *args: runs.append(args[2]) or radix(*args))
    return runs


def solve_at_cap(dataset, target_fpr, cap_offset, **kw):
    """solve_threshold with COLLECT_CAP set by `cap_offset`, asserting the route it
    forces: with None the radix select never runs, with -1 it runs once (or not
    at all on a degenerate target, which needs no selection)."""
    allowed = int(Fraction(target_fpr) * pairwise.ordered_pair_totals(dataset)[1])
    with pytest.MonkeyPatch.context() as mp:
        runs = radix_runs(mp)
        if cap_offset is not None:
            mp.setattr(pairwise, "COLLECT_CAP", 0 if cap_offset == -1 else allowed + 1 + cap_offset)
        r = pairwise.solve_threshold(dataset, target_fpr, **kw)
    if cap_offset is None:
        assert runs == []
    elif cap_offset == -1:
        assert runs == ([] if r.degenerate else [allowed + 1])
    return r
