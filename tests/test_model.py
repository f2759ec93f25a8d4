import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpair import model
from fairpair.errors import DomainError, FormatError, ValidationError
from fairpair.model import (
    ACTIVATIONS,
    BatchCache,
    ModelParams,
    batch_backward,
    batch_forward,
    cosface_loss,
    debias_forward,
    encoder_forward,
    epsilon,
    finite_diff_grad,
    grad_check,
    load_model,
    mix,
    mixfair_loss,
    save_model,
    xavier_init,
)


def tiny_params(rng, d_in=5, d_k=4, d_f=3, n_id=4, **kw):
    return xavier_init(d_in, d_k, d_f, n_id, rng, **kw)


@pytest.fixture
def params(rng):
    return tiny_params(rng)


# --- forward pieces -----------------------------------------------------------

def test_encoder_softplus_positive(params, rng):
    k = encoder_forward(rng.normal(size=params.d_in) * 3, params)
    assert k.shape == (params.d_k,)
    assert np.all(k > 0)  # softplus range


def test_encoder_identity_passthrough(rng):
    p = tiny_params(rng, encoder_act="identity")
    x = rng.normal(size=p.d_in)
    np.testing.assert_allclose(encoder_forward(x, p), x @ p.w_enc, rtol=1e-15)


def test_debias_affine_defaults_linear(params, rng):
    k = rng.normal(size=params.d_k)
    f = debias_forward(k, params)
    m = k @ params.w_deb
    np.testing.assert_allclose(f, m / np.linalg.norm(m), rtol=1e-13)
    assert abs(np.linalg.norm(f) - 1.0) < 1e-12


def test_mix_is_midpoint(rng):
    a, b = rng.normal(size=6), rng.normal(size=6)
    np.testing.assert_allclose(mix(a, b), 0.5 * (a + b), rtol=1e-15)


# --- epsilon invariants ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_epsilon_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    p = tiny_params(rng)
    k_i = np.abs(rng.normal(size=p.d_k)) + 0.1
    k_j = np.abs(rng.normal(size=p.d_k)) + 0.1
    e = epsilon(k_i, k_j, p)
    assert epsilon(k_j, k_i, p) == pytest.approx(-e, abs=1e-12)
    assert -1.0 <= e <= 1.0  # difference of two squared cosines


def test_epsilon_zero_for_identical_inputs(params, rng):
    k = np.abs(rng.normal(size=params.d_k)) + 0.1
    assert epsilon(k, k, params) == 0.0


def test_epsilon_sign_tracks_norm_dominance(rng):
    # with an identity debias map, the larger-norm side pulls the mix toward
    # itself, so its squared cosine with the mix is larger
    d = 4
    p = ModelParams(w_enc=np.eye(d), w_deb=np.eye(d),
                    prototypes=np.eye(3, d) + 0.01)
    base = rng.normal(size=d)
    other = rng.normal(size=d)
    other -= (other @ base) / (base @ base) * base  # orthogonal direction
    k_big = 5.0 * base
    k_small = 0.2 * other
    assert epsilon(k_big, k_small, p) > 0
    assert epsilon(k_small, k_big, p) < 0


# --- losses ----------------------------------------------------------------------

def test_cosface_is_mixfair_at_zero_eps(params, rng):
    f = rng.normal(size=params.d_f)
    f /= np.linalg.norm(f)
    for y in range(params.n_id):
        assert cosface_loss(f, y, params) == mixfair_loss(f, y, 0.0, params)


def test_margin_raises_loss(params, rng):
    f = rng.normal(size=params.d_f)
    f /= np.linalg.norm(f)
    no_margin = ModelParams(w_enc=params.w_enc, w_deb=params.w_deb,
                            prototypes=params.prototypes, scale=params.scale,
                            margin=0.0)
    assert cosface_loss(f, 1, params) > cosface_loss(f, 1, no_margin)


def test_positive_eps_lowers_loss(params, rng):
    # moderate scale keeps the softmax away from exact saturation
    p = ModelParams(w_enc=params.w_enc, w_deb=params.w_deb,
                    prototypes=params.prototypes, scale=4.0, margin=0.35)
    f = rng.normal(size=p.d_f)
    f /= np.linalg.norm(f)
    assert mixfair_loss(f, 0, 0.2, p) < mixfair_loss(f, 0, 0.0, p)
    assert mixfair_loss(f, 0, -0.2, p) > mixfair_loss(f, 0, 0.0, p)


def test_loss_label_out_of_range(params):
    f = np.ones(params.d_f) / math.sqrt(params.d_f)
    with pytest.raises(DomainError):
        mixfair_loss(f, params.n_id, 0.0, params)


def test_loss_is_finite_at_large_scale(rng):
    p = tiny_params(rng, d_f=8)
    f = rng.normal(size=8)
    f /= np.linalg.norm(f)
    big = ModelParams(w_enc=p.w_enc, w_deb=p.w_deb, prototypes=p.prototypes,
                      scale=4096.0, margin=0.35)
    val = cosface_loss(f, 0, big)
    assert math.isfinite(val) and val >= 0.0


# --- batch forward/backward -------------------------------------------------------

def make_batch(rng, p, n=6):
    x = rng.normal(size=(n, p.d_in))
    y = rng.integers(0, p.n_id, size=n)
    y[:2] = [0, 1]
    partners = np.empty(n, dtype=np.int64)
    for i in range(n):
        js = np.flatnonzero(y != y[i])
        partners[i] = js[(i + 1) % len(js)]
    return x, y, partners


def test_batch_loss_is_mean_of_single_losses(params, rng):
    x, y, partners = make_batch(rng, params)
    cache = batch_forward(x, y, partners, params, use_eps=True)
    singles = []
    for i in range(len(y)):
        k_i = encoder_forward(x[i], params)
        k_j = encoder_forward(x[partners[i]], params)
        f = debias_forward(k_i, params)
        e = epsilon(k_i, k_j, params)
        singles.append(mixfair_loss(f, int(y[i]), e, params))
    assert cache.loss == pytest.approx(float(np.mean(singles)), rel=1e-12)


def test_batch_forward_eps_toggle(params, rng):
    x, y, partners = make_batch(rng, params)
    with_eps = batch_forward(x, y, partners, params, use_eps=True)
    without = batch_forward(x, y, partners, params, use_eps=False)
    assert with_eps.loss != without.loss
    np.testing.assert_array_equal(with_eps.eps, without.eps)  # measured either way


@pytest.mark.parametrize("use_eps,enc,deb", [
    (True, "softplus", "identity"),
    (True, "softplus", "softplus"),
    (True, "identity", "identity"),
    (False, "softplus", "identity"),
    (False, "identity", "softplus"),
])
def test_gradients_match_finite_differences(use_eps, enc, deb):
    rng = np.random.default_rng(99)
    err = grad_check(6, 5, 4, 5, 7, rng, use_eps=use_eps,
                     encoder_act=enc, debias_act=deb)
    assert err < 1e-5


def test_grad_check_catches_planted_bug(monkeypatch):
    backward = model.batch_backward
    monkeypatch.setattr(model, "batch_backward", lambda *args, **kw: {
        name: -g for name, g in backward(*args, **kw).items()})
    rng = np.random.default_rng(7)
    err = grad_check(5, 4, 3, 4, 6, rng)
    assert err > 1e-2


def test_grad_check_fails_on_nan_error(monkeypatch):
    # a NaN finite difference gives a NaN relative error, which must not pass
    monkeypatch.setattr(model, "finite_diff_grad", lambda loss_fn, params, step: {
        name: np.full_like(getattr(params, name), np.nan)
        for name in ("w_enc", "w_deb", "prototypes")})
    err = grad_check(5, 4, 3, 4, 6, np.random.default_rng(7))
    assert math.isnan(err)
    assert not err < 1e-5


def test_detach_eps_changes_gradient_not_loss(params, rng):
    x, y, partners = make_batch(rng, params)
    cache = batch_forward(x, y, partners, params, use_eps=True)
    full = batch_backward(cache, params)
    detached = batch_backward(cache, params, detach_eps=True)
    assert not np.allclose(full["w_deb"], detached["w_deb"])
    # the prototype branch carries no epsilon term, so it is identical
    np.testing.assert_allclose(full["prototypes"], detached["prototypes"], rtol=1e-12)


def test_detached_gradient_matches_fd_of_detached_loss(rng):
    # oracle: finite differences of a loss where epsilon is held constant
    p = tiny_params(rng)
    x, y, partners = make_batch(rng, p)
    cache = batch_forward(x, y, partners, p, use_eps=True)
    analytic = batch_backward(cache, p, detach_eps=True)
    frozen_eps = cache.eps.copy()

    def detached_loss(q):
        c = batch_forward(x, y, partners, q, use_eps=False)
        losses = []
        for i in range(len(y)):
            f = debias_forward(encoder_forward(x[i], q), q)
            losses.append(mixfair_loss(f, int(y[i]), float(frozen_eps[i]), q))
        return float(np.mean(losses))

    numeric = finite_diff_grad(detached_loss, p, step=1e-6)
    for name in analytic:
        a, b = analytic[name], numeric[name]
        rel = np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-12)
        assert rel < 1e-5, name


def test_backward_rejects_nonfinite(params, rng):
    x, y, partners = make_batch(rng, params)
    cache = batch_forward(x, y, partners, params)
    cache.probs = cache.probs.copy()
    cache.probs[0, 0] = np.nan
    with pytest.raises(ValidationError):
        batch_backward(cache, params)


# --- parameter container -----------------------------------------------------------

def test_params_validation():
    ok = dict(w_enc=np.ones((3, 2)), w_deb=np.ones((2, 2)), prototypes=np.ones((4, 2)))
    ModelParams(**ok)
    with pytest.raises(DomainError):
        ModelParams(**ok, scale=0.0)
    with pytest.raises(DomainError):
        ModelParams(**ok, margin=-0.1)
    with pytest.raises(ValidationError):
        ModelParams(w_enc=np.ones((3, 2)), w_deb=np.ones((5, 2)), prototypes=np.ones((4, 2)))
    with pytest.raises(ValidationError):
        ModelParams(w_enc=np.ones((3, 2)), w_deb=np.ones((2, 2)), prototypes=np.zeros((4, 2)))
    with pytest.raises(DomainError):
        ModelParams(**ok, encoder_act="relu")


def test_xavier_shapes_and_ranges(rng):
    p = xavier_init(7, 5, 3, 9, rng)
    assert p.w_enc.shape == (7, 5) and p.w_deb.shape == (5, 3)
    assert p.prototypes.shape == (9, 3)
    lim = math.sqrt(6.0 / (7 + 5))
    assert np.all(np.abs(p.w_enc) <= lim)


# --- model container ------------------------------------------------------------------

def test_model_roundtrip_bit_exact(tmp_path, rng):
    p = tiny_params(rng, d_in=6, d_k=5, d_f=4, n_id=7,
                    encoder_act="identity", debias_act="softplus")
    path = tmp_path / "m.ffmp"
    save_model(path, p)
    q = load_model(path)
    assert q.w_enc.tobytes() == p.w_enc.tobytes()
    assert q.w_deb.tobytes() == p.w_deb.tobytes()
    assert q.prototypes.tobytes() == p.prototypes.tobytes()
    assert (q.scale, q.margin) == (p.scale, p.margin)
    assert (q.encoder_act, q.debias_act) == (p.encoder_act, p.debias_act)
    # second save writes identical bytes
    path2 = tmp_path / "m2.ffmp"
    save_model(path2, q)
    assert path.read_bytes() == path2.read_bytes()


def test_failed_save_keeps_old_model(tmp_path, rng, params, monkeypatch):
    path = tmp_path / "m.ffmp"
    save_model(path, params)
    before = path.read_bytes()

    def boom(*args):  # struct.pack writes the loss scalars, after the header
        raise OSError("disk full")
    other = tiny_params(rng, d_in=6)
    with monkeypatch.context() as mp:
        mp.setattr(struct, "pack", boom)
        with pytest.raises(OSError, match="disk full"):
            save_model(path, other)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ffmp"]
    save_model(path, other)
    assert load_model(path).w_enc.tobytes() == other.w_enc.tobytes()


def test_model_bad_magic(tmp_path, params):
    path = tmp_path / "m.ffmp"
    save_model(path, params)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_model(path)


def test_model_truncated(tmp_path, params):
    path = tmp_path / "m.ffmp"
    save_model(path, params)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        load_model(path)
    path.write_bytes(raw + b"??")
    with pytest.raises(FormatError):
        load_model(path)
