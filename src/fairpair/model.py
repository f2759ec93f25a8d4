"""Toy encoder/debias model with a feature-mixing bias adapter.

The network is deliberately small: an affine encoder with a smooth elementwise
nonlinearity feeding an affine debias map whose normalized output is scored
against per-class prototypes with a large-margin cosine loss.  For a pair of
samples from different identities the adapter mixes their intermediate
features equally and reads off a bias difference

    eps = cos^2(M(k_mix), M(k_i)) - cos^2(M(k_mix), M(k_j))

which the debiased loss injects into the target logit.  All arithmetic is
float64; gradients are hand-derived and checked against central finite
differences (see `finite_diff_grad`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, ValidationError
from .util import replaced

FFMP_MAGIC = b"FFMP"
FFMP_VERSION = 1
_FFMP_HEADER = struct.Struct("<4sIIIIIBB2x")

ACTIVATIONS = ("softplus", "identity")


def _act(name: str, x: np.ndarray) -> np.ndarray:
    if name == "softplus":
        return np.logaddexp(0.0, x)
    if name == "identity":
        return x
    raise DomainError(f"unknown activation {name!r}")


def _act_deriv(name: str, x: np.ndarray) -> np.ndarray:
    if name == "softplus":
        # sigmoid via tanh keeps large |x| finite
        return 0.5 * (1.0 + np.tanh(0.5 * x))
    if name == "identity":
        return np.ones_like(x)
    raise DomainError(f"unknown activation {name!r}")


@dataclass
class ModelParams:
    """Weights plus the fixed loss hyperparameters they were trained with."""

    w_enc: np.ndarray      # (d_in, d_k)
    w_deb: np.ndarray      # (d_k, d_f)
    prototypes: np.ndarray  # (n_id, d_f), rows normalized at use
    scale: float = 64.0
    margin: float = 0.35
    encoder_act: str = "softplus"
    debias_act: str = "identity"   # affine debias layer by default

    def __post_init__(self):
        self.w_enc = np.asarray(self.w_enc, dtype=np.float64)
        self.w_deb = np.asarray(self.w_deb, dtype=np.float64)
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.scale <= 0:
            raise DomainError("scale must be positive")
        if self.margin < 0:
            raise DomainError("margin must be nonnegative")
        for name, t in (("w_enc", self.w_enc), ("w_deb", self.w_deb),
                        ("prototypes", self.prototypes)):
            if t.ndim != 2 or not np.isfinite(t).all():
                raise ValidationError(f"{name} must be a finite 2-D array")
        if self.w_enc.shape[1] != self.w_deb.shape[0]:
            raise ValidationError("encoder output and debias input dimensions differ")
        if self.prototypes.shape[1] != self.w_deb.shape[1]:
            raise ValidationError("prototype and debias output dimensions differ")
        with np.errstate(over="ignore"):  # a huge row's norm overflows to inf, not to 0
            if np.any(np.linalg.norm(self.prototypes, axis=1) == 0.0):
                raise ValidationError("prototype rows must be nonzero")
        for act in (self.encoder_act, self.debias_act):
            if act not in ACTIVATIONS:
                raise DomainError(f"unknown activation {act!r}")

    @property
    def d_in(self): return self.w_enc.shape[0]

    @property
    def d_k(self): return self.w_enc.shape[1]

    @property
    def d_f(self): return self.w_deb.shape[1]

    @property
    def n_id(self): return self.prototypes.shape[0]


def xavier_init(d_in: int, d_k: int, d_f: int, n_id: int, rng,
                scale: float = 64.0, margin: float = 0.35,
                encoder_act: str = "softplus", debias_act: str = "identity") -> ModelParams:
    """Glorot-uniform weights for all three tensors."""
    def glorot(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    return ModelParams(w_enc=glorot(d_in, d_k), w_deb=glorot(d_k, d_f),
                       prototypes=glorot(n_id, d_f), scale=scale, margin=margin,
                       encoder_act=encoder_act, debias_act=debias_act)


# ---------------------------------------------------------------------------
# single-sample ops (the readable reference; training uses the batch path)

def encoder_forward(x, params: ModelParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.d_in,):
        raise DomainError(f"expected input of dimension {params.d_in}, got {x.shape}")
    return _act(params.encoder_act, params.w_enc.T @ x)


def _debias_map(k, params: ModelParams) -> np.ndarray:
    return _act(params.debias_act, params.w_deb.T @ np.asarray(k, dtype=np.float64))


def debias_forward(k, params: ModelParams) -> np.ndarray:
    m = _debias_map(k, params)
    n = np.linalg.norm(m)
    if n == 0.0:
        raise DomainError("debias output is the zero vector; cannot normalize")
    return m / n


def mix(k_i, k_j) -> np.ndarray:
    k_i = np.asarray(k_i, dtype=np.float64)
    k_j = np.asarray(k_j, dtype=np.float64)
    if k_i.shape != k_j.shape:
        raise DomainError("mixed features must have the same dimension")
    return 0.5 * (k_i + k_j)


def _cos(u, v) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine with a zero vector is undefined")
    # rounding can push the ratio a few ulps past 1 for near-parallel inputs
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def epsilon(k_i, k_j, params: ModelParams) -> float:
    """Bias difference read from the equal mix; positive means i dominates."""
    m_i = _debias_map(k_i, params)
    m_j = _debias_map(k_j, params)
    m_mix = _debias_map(mix(k_i, k_j), params)
    return _cos(m_mix, m_i) ** 2 - _cos(m_mix, m_j) ** 2


def cosface_loss(f_hat, y: int, params: ModelParams) -> float:
    return mixfair_loss(f_hat, y, 0.0, params)


def mixfair_loss(f_hat, y: int, eps: float, params: ModelParams) -> float:
    """Large-margin cosine loss with the bias difference injected at the target."""
    f_hat = np.asarray(f_hat, dtype=np.float64)
    if not 0 <= y < params.n_id:
        raise DomainError(f"label {y} outside [0, {params.n_id})")
    w_hat = params.prototypes / np.linalg.norm(params.prototypes, axis=1, keepdims=True)
    cos = w_hat @ f_hat
    z = params.scale * cos
    z[y] = params.scale * (cos[y] - params.margin + eps)
    zmax = z.max()
    return float(zmax + np.log(np.sum(np.exp(z - zmax))) - z[y])


# ---------------------------------------------------------------------------
# batch forward / backward

@dataclass
class BatchCache:
    """Intermediates of one batch forward pass, kept for the backward pass."""

    x: np.ndarray
    y: np.ndarray
    partners: np.ndarray
    pre_a: np.ndarray
    k: np.ndarray
    pre_m: np.ndarray
    m: np.ndarray
    m_norm: np.ndarray
    f_hat: np.ndarray
    pre_mix: np.ndarray
    m_mix: np.ndarray
    mix_norm: np.ndarray
    w_hat: np.ndarray
    w_norm: np.ndarray
    cos: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    eps: np.ndarray
    probs: np.ndarray
    loss: float
    use_eps: bool


def batch_forward(x, y, partners, params: ModelParams, use_eps: bool = True) -> BatchCache:
    """Mean debiased-margin loss over a batch with fixed partner pairing."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    partners = np.asarray(partners, dtype=np.int64)
    n = x.shape[0]
    if np.any(partners == np.arange(n)):
        raise DomainError("a sample cannot be its own mixing partner")

    pre_a = x @ params.w_enc
    k = _act(params.encoder_act, pre_a)
    pre_m = k @ params.w_deb
    m = _act(params.debias_act, pre_m)
    pre_mix = (0.5 * (k + k[partners])) @ params.w_deb
    m_mix = _act(params.debias_act, pre_mix)

    m_norm = np.linalg.norm(m, axis=1)
    mix_norm = np.linalg.norm(m_mix, axis=1)
    bad = np.flatnonzero((m_norm == 0.0) | (mix_norm == 0.0))
    if bad.size:
        raise DomainError(f"zero debias output for sample {int(bad[0])}")
    f_hat = m / m_norm[:, None]

    mix_hat = m_mix / mix_norm[:, None]
    c1 = np.einsum("ij,ij->i", mix_hat, f_hat)
    c2 = np.einsum("ij,ij->i", mix_hat, f_hat[partners])
    eps = c1 ** 2 - c2 ** 2

    w_norm = np.linalg.norm(params.prototypes, axis=1)
    w_hat = params.prototypes / w_norm[:, None]
    cos = f_hat @ w_hat.T

    z = params.scale * cos
    rows = np.arange(n)
    target_shift = -params.margin + (eps if use_eps else 0.0)
    z[rows, y] = params.scale * (cos[rows, y] + target_shift)
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1)
    probs = ez / sez[:, None]
    losses = np.log(sez) + zmax[:, 0] - z[rows, y]
    return BatchCache(x=x, y=y, partners=partners, pre_a=pre_a, k=k, pre_m=pre_m,
                      m=m, m_norm=m_norm, f_hat=f_hat, pre_mix=pre_mix, m_mix=m_mix,
                      mix_norm=mix_norm, w_hat=w_hat, w_norm=w_norm, cos=cos,
                      c1=c1, c2=c2, eps=eps, probs=probs,
                      loss=float(losses.mean()), use_eps=use_eps)


def batch_backward(cache: BatchCache, params: ModelParams,
                   detach_eps: bool = False) -> dict:
    """Analytic gradients of the mean batch loss for w_enc, w_deb, prototypes.

    The bias difference is part of the computation graph: its gradient reaches
    both members of each pair and the mixed feature unless `detach_eps` asks
    for the stop-gradient ablation.
    """
    n = cache.x.shape[0]
    rows = np.arange(n)
    p = cache.partners

    g_z = cache.probs.copy()
    g_z[rows, cache.y] -= 1.0
    g_z /= n
    d_cos = params.scale * g_z                      # every logit is scale*cos + shift
    d_eps = params.scale * g_z[rows, cache.y] if (cache.use_eps and not detach_eps) else None

    # prototype branch: cos = f_hat @ w_hat.T
    d_f = d_cos @ cache.w_hat
    d_w_hat = d_cos.T @ cache.f_hat
    dot = np.einsum("ij,ij->i", d_w_hat, cache.w_hat)
    d_w = (d_w_hat - dot[:, None] * cache.w_hat) / cache.w_norm[:, None]

    # f_hat = m / |m|
    dot = np.einsum("ij,ij->i", d_f, cache.f_hat)
    d_m = (d_f - dot[:, None] * cache.f_hat) / cache.m_norm[:, None]
    d_m_mix = np.zeros_like(cache.m_mix)

    if d_eps is not None:
        mix_hat = cache.m_mix / cache.mix_norm[:, None]
        m_hat = cache.f_hat
        m_hat_p = cache.f_hat[p]
        c1, c2 = cache.c1[:, None], cache.c2[:, None]
        w = d_eps[:, None]
        d_m += w * 2.0 * c1 * (mix_hat - c1 * m_hat) / cache.m_norm[:, None]
        np.add.at(d_m, p, w * -2.0 * c2 * (mix_hat - c2 * m_hat_p) / cache.m_norm[p, None])
        d_m_mix = w * (2.0 * c1 * (m_hat - c1 * mix_hat)
                       - 2.0 * c2 * (m_hat_p - c2 * mix_hat)) / cache.mix_norm[:, None]

    # debias map applied to k and to the mixed feature
    d_pre_m = d_m * _act_deriv(params.debias_act, cache.pre_m)
    d_pre_mix = d_m_mix * _act_deriv(params.debias_act, cache.pre_mix)
    k_mix = 0.5 * (cache.k + cache.k[p])
    d_w_deb = cache.k.T @ d_pre_m + k_mix.T @ d_pre_mix
    d_k = d_pre_m @ params.w_deb.T
    d_k_mix = d_pre_mix @ params.w_deb.T
    d_k += 0.5 * d_k_mix
    np.add.at(d_k, p, 0.5 * d_k_mix)

    d_pre_a = d_k * _act_deriv(params.encoder_act, cache.pre_a)
    d_w_enc = cache.x.T @ d_pre_a

    grads = {"w_enc": d_w_enc, "w_deb": d_w_deb, "prototypes": d_w}
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise ValidationError(f"non-finite gradient in {name}")
    return grads


def finite_diff_grad(loss_fn, params: ModelParams, step: float = 1e-6) -> dict:
    """Central finite differences of loss_fn over every scalar parameter."""
    grads = {}
    for name in ("w_enc", "w_deb", "prototypes"):
        tensor = getattr(params, name)
        g = np.zeros_like(tensor)
        flat_t, flat_g = tensor.ravel(), g.ravel()
        for idx in range(flat_t.size):
            orig = flat_t[idx]
            flat_t[idx] = orig + step
            up = loss_fn(params)
            flat_t[idx] = orig - step
            down = loss_fn(params)
            flat_t[idx] = orig
            flat_g[idx] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def grad_check(d_in: int, d_k: int, d_f: int, n_id: int, batch: int, rng,
               step: float = 1e-6, use_eps: bool = True,
               encoder_act: str = "softplus", debias_act: str = "identity") -> float:
    """Max relative error between analytic and finite-difference gradients."""
    if n_id < 2:
        raise DomainError("gradient check needs at least two identities")
    params = xavier_init(d_in, d_k, d_f, n_id, rng,
                         encoder_act=encoder_act, debias_act=debias_act)
    x = rng.normal(size=(batch, d_in))
    y = rng.integers(0, n_id, size=batch)
    # guarantee at least two identities so a valid pairing exists
    y[0], y[1] = 0, 1
    partners = _roundrobin_partners(y)

    cache = batch_forward(x, y, partners, params, use_eps=use_eps)
    analytic = batch_backward(cache, params)
    numeric = finite_diff_grad(
        lambda q: batch_forward(x, y, partners, q, use_eps=use_eps).loss, params, step)
    rels = []
    for name in analytic:
        a, b = analytic[name], numeric[name]
        # norm-relative: individual near-zero entries sit below the O(eps/step)
        # floor of central differences, so element-wise ratios are meaningless there
        rels.append(np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-12))
    return float(np.max(rels))  # a NaN error stays NaN, which no tolerance passes


def _roundrobin_partners(y: np.ndarray) -> np.ndarray:
    """Minimal different-identity pairing used by the gradient checker."""
    n = len(y)
    partners = np.empty(n, dtype=np.int64)
    for i in range(n):
        j, steps = (i + 1) % n, 0
        while j == i or y[j] == y[i]:
            j = (j + 1) % n
            steps += 1
            if steps > n:
                raise DomainError("gradient-check batch needs two identities")
        partners[i] = j
    return partners


# ---------------------------------------------------------------------------
# model container

_ACT_CODE = {"softplus": 0, "identity": 1}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}


def save_model(path, params: ModelParams) -> None:
    """FFMP container: header, loss scalars, then the three float64 tensors.

    Written beside `path` and moved into place whole, as `save_dataset` does.
    """
    with replaced([Path(path)]) as (tmp,), open(tmp, "wb") as f:
        f.write(_FFMP_HEADER.pack(FFMP_MAGIC, FFMP_VERSION, params.d_in, params.d_k,
                                  params.d_f, params.n_id,
                                  _ACT_CODE[params.encoder_act],
                                  _ACT_CODE[params.debias_act]))
        f.write(struct.pack("<dd", params.scale, params.margin))
        for t in (params.w_enc, params.w_deb, params.prototypes):
            f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_model(path) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _FFMP_HEADER.size:
        raise FormatError(f"truncated model header at byte {len(blob)}")
    magic, version, d_in, d_k, d_f, n_id, enc_code, deb_code = \
        _FFMP_HEADER.unpack_from(blob, 0)
    if magic != FFMP_MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0")
    if version != FFMP_VERSION:
        raise FormatError(f"unsupported model version {version} at byte 4")
    if enc_code not in _ACT_NAME or deb_code not in _ACT_NAME:
        raise FormatError(f"unknown activation code at byte {_FFMP_HEADER.size - 2}")
    off = _FFMP_HEADER.size
    need = off + 16 + 8 * (d_in * d_k + d_k * d_f + n_id * d_f)
    if len(blob) != need:
        raise FormatError(f"model payload ends at byte {len(blob)}, expected {need}")
    scale, margin = struct.unpack_from("<dd", blob, off)
    if not scale > 0:
        raise FormatError(f"model scale {scale!r} at byte {off} must be positive")
    if not margin >= 0:
        raise FormatError(f"model margin {margin!r} at byte {off + 8} must be nonnegative")
    off += 16

    def take(r, c):
        nonlocal off
        t = np.frombuffer(blob, dtype="<f8", count=r * c, offset=off).reshape(r, c)
        off += 8 * r * c
        return t.copy()

    return ModelParams(w_enc=take(d_in, d_k), w_deb=take(d_k, d_f),
                       prototypes=take(n_id, d_f), scale=scale, margin=margin,
                       encoder_act=_ACT_NAME[enc_code], debias_act=_ACT_NAME[deb_code])
