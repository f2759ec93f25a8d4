"""Deterministic SGD training loop for the toy debias model.

Mirrors the usual face-recognition recipe at desk scale: SGD with momentum
0.9 and weight decay 5e-4, step learning-rate decay by 0.1 at fixed epochs
(scaled proportionally when the epoch budget changes), margin 0.35 and scale
64.  Given (config, seed, data) the produced trace is bit-identical across
runs.  The `cosface` mode trains without the bias-difference injection but
still measures it every iteration, so the two traces are directly comparable.
"""

from __future__ import annotations

import csv
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError, PairingError
from .model import ModelParams, _act, batch_backward, batch_forward, xavier_init
from .store import EmbeddingSet, LabelTable
from .synth import seeded_rng
from .util import kv_get, parse_kv, replaced

BASE_DECAY_EPOCHS = (8, 18, 30, 34)   # of a 40-epoch budget
MODES = ("mixfair", "cosface")

_STREAM_INIT, _STREAM_SHUFFLE, _STREAM_PAIR = 10, 11, 12


def scaled_decay_epochs(epochs: int) -> tuple:
    """The 40-epoch decay points compressed proportionally to `epochs`."""
    pts = sorted({max(1, round(epochs * e / 40)) for e in BASE_DECAY_EPOCHS})
    return tuple(p for p in pts if p < epochs)


@dataclass
class TrainConfig:
    d_in: int
    d_k: int = 32
    d_f: int = 16
    n_id: int = 0                 # 0 = infer from the labels
    lr: float = 0.1
    decay_epochs: tuple = ()      # empty = scale the 40-epoch schedule
    decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 64
    epochs: int = 40
    seed: int = 0
    mode: str = "mixfair"
    detach_eps: bool = False
    encoder_act: str = "softplus"
    debias_act: str = "identity"
    scale: float = 64.0
    margin: float = 0.35

    def __post_init__(self):
        for name in ("d_in", "d_k", "d_f", "batch_size", "epochs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.n_id < 0:
            raise ConfigError("n_id must be nonnegative")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def learning_rate(self, epoch: int) -> float:
        """lr for a 0-based epoch index; each decay point applies from then on."""
        points = self.decay_epochs or scaled_decay_epochs(self.epochs)
        drops = sum(1 for e in points if epoch >= e)
        return self.lr * self.decay_factor ** drops


def parse_train_config(text: str, d_in: int | None = None) -> TrainConfig:
    """A TrainConfig from `key = value` lines: its field names, cast to their types.

    `decay_epochs` is a comma-separated list. An absent key keeps the field's
    default; `d_in`, which has none, falls back to the argument (without it,
    to 0, which TrainConfig rejects).
    """
    kv = parse_kv(text)
    casts = typing.get_type_hints(TrainConfig)
    casts["decay_epochs"] = lambda v: tuple(int(p) for p in v.split(",") if p.strip())
    names = {f.name for f in fields(TrainConfig)}
    cfg = TrainConfig(**{"d_in": d_in if d_in is not None else 0,
                         **{name: kv_get(kv, name, casts[name]) for name in names & set(kv)}})
    unknown = set(kv) - names
    if unknown:
        raise ConfigError(f"unknown training config keys: {sorted(unknown)}")
    return cfg


@dataclass
class BiasTrace:
    """Per-iteration mean |bias difference| and loss."""

    mean_abs_eps: np.ndarray
    loss: np.ndarray

    def __post_init__(self):
        self.mean_abs_eps = np.asarray(self.mean_abs_eps, dtype=np.float64)
        self.loss = np.asarray(self.loss, dtype=np.float64)
        if self.mean_abs_eps.shape != self.loss.shape:
            raise DomainError("trace columns must have equal length")

    @property
    def iterations(self) -> int:
        return len(self.loss)

    def tail_mean_abs_eps(self, window: int) -> float:
        if self.iterations == 0:
            raise DomainError("empty trace")
        return float(self.mean_abs_eps[-window:].mean())


def save_trace(path, trace: BiasTrace) -> None:
    """Write the trace CSV (iteration, mean_abs_eps, loss), replacing the file whole."""
    with replaced([Path(path)]) as (tmp,), open(tmp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iteration", "mean_abs_eps", "loss"])
        for i in range(trace.iterations):
            w.writerow([i, f"{trace.mean_abs_eps[i]:.9g}", f"{trace.loss[i]:.9g}"])


def load_trace(path) -> BiasTrace:
    eps, loss = [], []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            eps.append(float(row["mean_abs_eps"]))
            loss.append(float(row["loss"]))
    return BiasTrace(mean_abs_eps=np.array(eps), loss=np.array(loss))


def pair_samples(y: np.ndarray, rng) -> np.ndarray:
    """Different-identity partner for every batch sample.

    A random cyclic shift proposes partner (i + r) mod n; same-identity
    proposals advance forward (skipping i itself) until they land on another
    identity.  Deterministic given the generator state.
    """
    y = np.asarray(y)
    n = len(y)
    if n < 2 or len(np.unique(y)) < 2:
        raise PairingError("batch needs at least two identities to pair")
    r = int(rng.integers(1, n))
    partners = (np.arange(n) + r) % n
    for i in np.flatnonzero(y[partners] == y):
        j = int(partners[i])
        while y[j] == y[i] or j == i:
            j = (j + 1) % n
        partners[i] = j
    return partners


def _epoch_batches(y: np.ndarray, shuffle_rng, batch_size: int, tries: int = 100):
    """Shuffled full batches, re-shuffling until every batch spans 2 identities."""
    n = len(y)
    bs = min(batch_size, n)
    for _ in range(tries):
        perm = shuffle_rng.permutation(n)
        batches = [perm[b * bs:(b + 1) * bs] for b in range(n // bs)]
        if all(len(np.unique(y[idx])) >= 2 for idx in batches):
            return batches
    raise PairingError("could not form batches with two identities each "
                       f"(batch size {bs}) after {tries} shuffles")


def train(config: TrainConfig, x: np.ndarray, y: np.ndarray):
    """Run the loop on pre-split training samples; returns (params, trace)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DomainError("samples and labels disagree in length")
    if x.shape[1] != config.d_in:
        raise ConfigError(f"config d_in={config.d_in} but samples have {x.shape[1]} columns")
    n_id = config.n_id or int(y.max()) + 1
    if y.min() < 0 or y.max() >= n_id:
        raise DomainError("labels outside [0, n_id)")

    params = xavier_init(config.d_in, config.d_k, config.d_f, n_id,
                         seeded_rng(config.seed, _STREAM_INIT),
                         scale=config.scale, margin=config.margin,
                         encoder_act=config.encoder_act, debias_act=config.debias_act)
    velocity = {name: np.zeros_like(getattr(params, name))
                for name in ("w_enc", "w_deb", "prototypes")}
    shuffle_rng = seeded_rng(config.seed, _STREAM_SHUFFLE)
    pair_rng = seeded_rng(config.seed, _STREAM_PAIR)
    use_eps = config.mode == "mixfair"

    eps_trace, loss_trace = [], []
    iteration = 0
    for epoch in range(config.epochs):
        lr = config.learning_rate(epoch)
        for idx in _epoch_batches(y, shuffle_rng, config.batch_size):
            partners = pair_samples(y[idx], pair_rng)
            cache = batch_forward(x[idx], y[idx], partners, params, use_eps=use_eps)
            if not np.isfinite(cache.loss):
                raise DivergenceError(iteration)
            grads = batch_backward(cache, params, detach_eps=config.detach_eps)
            for name, g in grads.items():
                tensor = getattr(params, name)
                velocity[name] *= config.momentum
                velocity[name] += g + config.weight_decay * tensor
                tensor -= lr * velocity[name]
            eps_trace.append(float(np.mean(np.abs(cache.eps))))
            loss_trace.append(cache.loss)
            iteration += 1
    return params, BiasTrace(mean_abs_eps=np.array(eps_trace), loss=np.array(loss_trace))


def encode_dataset(params: ModelParams, x: np.ndarray, identity: np.ndarray,
                   attribute: np.ndarray, labels: LabelTable | None = None) -> EmbeddingSet:
    """Push raw samples through encoder+debias and package the unit features."""
    x = np.asarray(x, dtype=np.float64)
    identity = np.asarray(identity, dtype=np.int64)
    attribute = np.asarray(attribute, dtype=np.int64)
    if labels is None:
        labels = LabelTable.default(int(identity.max()) + 1, int(attribute.max()) + 1)
    k = _act(params.encoder_act, x @ params.w_enc)
    m = _act(params.debias_act, k @ params.w_deb)
    norms = np.linalg.norm(m, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise DomainError(f"zero debias output for sample {int(bad[0])}")
    f_hat = (m / norms[:, None]).astype(np.float32)
    return EmbeddingSet(vectors=f_hat, identity=identity, attribute=attribute,
                        labels=labels)
