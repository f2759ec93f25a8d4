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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_set(rng):
    return random_dataset(rng, n=60, d=8, g=12, m=3)


# COLLECT_CAP relative to the rank k = allowed + 1 that solve_threshold seeks:
# None keeps the default (top-k pass), k-1 forces the radix select, k and k+1
# take the top-k pass right at the boundary where the path switches.
CAP_OFFSETS = [None, -1, 0, 1]


def solve_at_cap(dataset, target_fpr, cap_offset, **kw):
    """solve_threshold with COLLECT_CAP set to k + cap_offset (None: unchanged)."""
    if cap_offset is None:
        return pairwise.solve_threshold(dataset, target_fpr, **kw)
    allowed = int(Fraction(target_fpr) * pairwise.ordered_pair_totals(dataset)[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairwise, "COLLECT_CAP", allowed + 1 + cap_offset)
        return pairwise.solve_threshold(dataset, target_fpr, **kw)
