import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpair.errors import ConfigError, DegenerateDataError, DomainError
from fairpair.metrics import intra_inter_similarity
from fairpair.pairwise import confusion_sweep, solve_threshold
from fairpair.store import mean_vectors
from fairpair.synth import (
    EVAL_FRACTION,
    BiasProfile,
    GroupSpec,
    format_profile,
    gen_population,
    gen_training_set,
    parse_profile,
    seeded_rng,
    split_by_identity,
    standard_biased_profile,
    zero_bias_profile,
)


def two_group_profile(c0=8.0, c1=8.0, noise0=0.3, noise1=0.3, ids=10, imgs=6, dim=16):
    return BiasProfile(dim=dim, images_per_identity=imgs, groups=(
        GroupSpec(name="g0", identities=ids, concentration=c0, noise=noise0),
        GroupSpec(name="g1", identities=ids, concentration=c1, noise=noise1),
    ))


# --- seeded streams -----------------------------------------------------------

def test_seeded_rng_reproducible():
    a = seeded_rng(42, 3).normal(size=8)
    b = seeded_rng(42, 3).normal(size=8)
    np.testing.assert_array_equal(a, b)


def test_seeded_rng_streams_differ():
    a = seeded_rng(42, 0).normal(size=8)
    b = seeded_rng(42, 1).normal(size=8)
    assert not np.array_equal(a, b)


def test_seeded_rng_stream_independence():
    # large samples from sibling streams should be uncorrelated
    n = 100_000
    a = seeded_rng(7, 0).normal(size=n)
    b = seeded_rng(7, 1).normal(size=n)
    r = float(np.corrcoef(a, b)[0, 1])
    assert abs(r) < 0.05


def test_seeded_rng_gaussian_moments():
    z = seeded_rng(11, 2).normal(size=1_000_000)
    assert abs(z.mean()) < 4.0 / np.sqrt(len(z))
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2 * len(z))


def test_seeded_rng_rejects_negative():
    with pytest.raises(DomainError):
        seeded_rng(-1, 0)
    with pytest.raises(DomainError):
        seeded_rng(0, -2)


# --- population generator -------------------------------------------------------

def test_population_reproducible():
    prof = two_group_profile()
    ds1, tr1 = gen_population(prof, seed=5)
    ds2, tr2 = gen_population(prof, seed=5)
    assert ds1.vectors.tobytes() == ds2.vectors.tobytes()
    np.testing.assert_array_equal(tr1.centers, tr2.centers)
    ds3, _ = gen_population(prof, seed=6)
    assert ds1.vectors.tobytes() != ds3.vectors.tobytes()


def test_population_shapes_and_labels():
    prof = two_group_profile(ids=7, imgs=4, dim=12)
    ds, truth = gen_population(prof, seed=0)
    assert ds.n == 2 * 7 * 4 and ds.dim == 12
    assert ds.n_identities == 14 and ds.n_attributes == 2
    # group blocks: first 7 identities in g0, next 7 in g1
    assert np.array_equal(truth.identity_group, np.repeat([0, 1], 7))
    np.testing.assert_array_equal(ds.attribute, truth.identity_group[ds.identity])
    assert np.linalg.norm(truth.centers, axis=1) == pytest.approx(1.0, abs=1e-12)


def test_population_noise_scale():
    prof = two_group_profile(noise0=0.0, noise1=0.5, imgs=8)
    ds, truth = gen_population(prof, seed=3)
    # zero noise puts every image exactly on its identity center
    for k in range(7):
        rows = ds.vectors[ds.identity == k].astype(np.float64)
        spread = np.linalg.norm(rows - truth.centers[k], axis=1).max()
        assert spread < 1e-6


def test_concentration_controls_center_spread():
    tight, _ = gen_population(two_group_profile(c0=50.0, c1=50.0), seed=1)
    loose, _ = gen_population(two_group_profile(c0=0.5, c1=0.5), seed=1)

    def mean_center_cos(ds):
        mu = mean_vectors(ds).means
        mu = mu / np.linalg.norm(mu, axis=1, keepdims=True)
        sims = mu @ mu.T
        np.fill_diagonal(sims, np.nan)
        return np.nanmean(sims)

    assert mean_center_cos(tight) > mean_center_cos(loose) + 0.2


def test_s_inter_ranking_matches_truth():
    # three groups with well-separated concentrations
    prof = BiasProfile(dim=24, images_per_identity=5, groups=(
        GroupSpec(name="low", identities=12, concentration=1.0, noise=0.2),
        GroupSpec(name="high", identities=12, concentration=25.0, noise=0.2),
        GroupSpec(name="mid", identities=12, concentration=6.0, noise=0.2),
    ))
    ds, truth = gen_population(prof, seed=2)
    assert truth.expected_s_inter_ranking() == (1, 2, 0)
    _, s_inter = intra_inter_similarity(ds, mean_vectors(ds), k=8)
    group_means = [float(np.mean(s_inter[truth.identity_group == g])) for g in range(3)]
    order = tuple(int(i) for i in np.argsort(group_means)[::-1])
    assert order == truth.expected_s_inter_ranking()


def test_zero_bias_groups_statistically_equal():
    prof = zero_bias_profile(identities=24, images=8)
    ds, truth = gen_population(prof, seed=9)
    r = solve_threshold(ds, 1e-2)
    acc = confusion_sweep(ds, r.threshold)
    neg = acc.attribute_counts[:, 1] + acc.attribute_counts[:, 2]
    afpr = acc.attribute_counts[:, 1] / neg
    spread = float(np.sqrt(np.mean((afpr - afpr.mean()) ** 2)))
    bound = truth.null_afpr_std_bound(r.realized_fp / r.total_negatives, neg)
    assert spread < bound


# --- training-set generator -------------------------------------------------------

def test_training_set_split_disjoint():
    prof = two_group_profile(ids=6, imgs=8)
    ts = gen_training_set(prof, d_in=20, seed=4)
    assert set(ts.train_idx) & set(ts.eval_idx) == set()
    assert len(ts.train_idx) + len(ts.eval_idx) == len(ts.y)
    for k in np.unique(ts.y):
        mine = np.flatnonzero(ts.y == k)
        n_eval = np.isin(mine, ts.eval_idx).sum()
        assert n_eval == round(0.25 * len(mine))
        assert len(mine) - n_eval >= 1


def test_training_set_scale_tracks_dimension():
    # noiseless samples sit exactly on scaled unit centers: norm == sqrt(d_in)
    prof = two_group_profile(noise0=0.0, noise1=0.0)
    for d_in in (8, 64):
        ts = gen_training_set(prof, d_in=d_in, seed=1)
        norms = np.linalg.norm(ts.x, axis=1)
        np.testing.assert_allclose(norms, np.sqrt(d_in), rtol=1e-12)
    # with noise the per-component spread stays well away from the tiny
    # near-zero regime that stalls the encoder under standard init
    ts = gen_training_set(two_group_profile(), d_in=32, seed=1)
    rms = float(np.sqrt(np.mean(ts.x ** 2)))
    assert 0.5 < rms < 4.0


def test_training_set_rejects_dimension_below_1():
    prof = two_group_profile(ids=4, imgs=5)
    for d_in in (0, -1):
        with pytest.raises(DomainError, match="raw dimension must be at least 1"):
            gen_training_set(prof, d_in=d_in, seed=0)
    ts = gen_training_set(prof, d_in=1, seed=0)  # the least dimension still works
    assert ts.x.shape == (len(ts.y), 1) and np.all(np.isfinite(ts.x))


def test_training_set_reproducible():
    prof = two_group_profile()
    a = gen_training_set(prof, d_in=16, seed=8)
    b = gen_training_set(prof, d_in=16, seed=8)
    assert a.x.tobytes() == b.x.tobytes()
    np.testing.assert_array_equal(a.train_idx, b.train_idx)


def test_training_population_streams_are_distinct():
    # population and training draws must not share random state
    prof = two_group_profile(dim=16)
    ds, _ = gen_population(prof, seed=3)
    ts = gen_training_set(prof, d_in=16, seed=3)
    assert ds.vectors.shape == ts.x.shape
    assert not np.allclose(ds.vectors, ts.x / np.sqrt(16))


def test_to_embedding_set_roundtrip():
    ts = gen_training_set(two_group_profile(ids=4, imgs=5), d_in=12, seed=0)
    ds = ts.to_embedding_set()
    assert ds.n == len(ts.y)
    np.testing.assert_array_equal(ds.identity, ts.y)
    np.testing.assert_array_equal(ds.attribute, ts.attribute)


def test_split_by_identity_handles_tiny_groups():
    y = np.array([0, 0, 1, 1, 2, 2, 2, 2])
    train_idx, eval_idx = split_by_identity(y)
    assert np.isin(eval_idx, [1, 3, 7]).all()  # trailing images go to eval
    assert (np.bincount(y[train_idx], minlength=3) >= 1).all()
    with pytest.raises(DegenerateDataError, match="identity 1 has fewer than 2"):
        split_by_identity(np.array([0, 0, 1]))


def _split_by_loop(identity, eval_fraction):
    """The per-identity loop split_by_identity once ran: the reference split."""
    train, evals = [], []
    for k in np.unique(identity):
        where = np.flatnonzero(identity == k)
        n_eval = min(where.size - 1, max(1, round(where.size * eval_fraction)))
        train.append(where[:where.size - n_eval])
        evals.append(where[where.size - n_eval:])
    return np.concatenate(train), np.concatenate(evals)


@pytest.mark.parametrize("eval_fraction", [EVAL_FRACTION, 0.1, 0.5, 0.9])
def test_split_by_identity_matches_loop(eval_fraction):
    # shuffled labels of uneven sizes, sparse label values, and halves that round to even
    rng = np.random.default_rng(3)
    for _ in range(40):
        g = int(rng.integers(1, 25))
        sizes = rng.integers(2, 23, size=g)
        y = np.repeat(rng.choice(4 * g, size=g, replace=False), sizes)
        rng.shuffle(y)
        got, want = split_by_identity(y, eval_fraction), _split_by_loop(y, eval_fraction)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# --- profiles -----------------------------------------------------------------------

def test_profile_roundtrip():
    prof = standard_biased_profile()
    text = format_profile(prof)
    assert parse_profile(text) == prof


@settings(max_examples=20, deadline=None)
@given(ids=st.integers(1, 40), imgs=st.integers(1, 30),
       conc=st.floats(0.01, 100.0), noise=st.floats(0.0, 2.0))
def test_profile_roundtrip_random(ids, imgs, conc, noise):
    prof = BiasProfile(dim=8, images_per_identity=imgs, groups=(
        GroupSpec(name="only", identities=ids, concentration=conc, noise=noise),))
    assert parse_profile(format_profile(prof)) == prof


def test_profile_validation():
    with pytest.raises(ConfigError):
        BiasProfile(dim=1, images_per_identity=2, groups=(
            GroupSpec(name="a", identities=2, concentration=1.0, noise=0.1),))
    with pytest.raises(ConfigError):
        BiasProfile(dim=4, images_per_identity=2, groups=(
            GroupSpec(name="a", identities=2, concentration=-1.0, noise=0.1),))
    with pytest.raises(ConfigError):
        BiasProfile(dim=4, images_per_identity=2, groups=(
            GroupSpec(name="a", identities=2, concentration=1.0, noise=0.1),
            GroupSpec(name="a", identities=2, concentration=1.0, noise=0.1),))


def test_parse_profile_rejects_unknown_key():
    text = format_profile(zero_bias_profile()) + "\nwhat = 3\n"
    with pytest.raises(ConfigError, match="what"):
        parse_profile(text)


def test_standard_profile_shape():
    prof = standard_biased_profile()
    assert prof.n_identities == 64 and prof.images_per_identity == 20
    concs = [g.concentration for g in prof.groups]
    assert max(concs) / min(concs) > 5  # a crowded group and a sparse group
