"""Synthetic embedding populations with controlled, known group bias.

Every generated vector decomposes as `center + noise` where the identity
center is pulled toward a shared group direction by the group's concentration
knob.  Higher concentration packs a group's identity centers closer together,
which raises that group's inter-identity similarity and (at a fixed global
threshold) its false-positive rate — the bias phenomenon the evaluation
engine is supposed to detect.  Everything is reproducible bit-for-bit from
(profile, seed) via counter-based random streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DomainError
from .store import EmbeddingSet, LabelTable
from .util import kv_get, parse_kv

EVAL_FRACTION = 0.25


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic stream: (seed, stream, index) fixes each draw."""
    if seed < 0 or stream < 0:
        raise DomainError("seed and stream id must be nonnegative")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


# stream ids (population and training draws never share a stream)
_STREAM_POP_DIRS, _STREAM_POP_CENTERS, _STREAM_POP_NOISE = 0, 1, 2
_STREAM_TRAIN_DIRS, _STREAM_TRAIN_CENTERS, _STREAM_TRAIN_NOISE = 5, 6, 7


@dataclass(frozen=True)
class GroupSpec:
    name: str
    identities: int
    concentration: float   # > 0; higher packs identity centers together
    noise: float           # >= 0; within-identity image scatter


@dataclass(frozen=True)
class BiasProfile:
    dim: int
    images_per_identity: int
    groups: tuple

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError("profile dimension must be at least 2")
        if self.images_per_identity < 1:
            raise ConfigError("images_per_identity must be at least 1")
        if not self.groups:
            raise ConfigError("profile needs at least one group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ConfigError("group names must be unique")
        for g in self.groups:
            if g.identities < 1:
                raise ConfigError(f"group {g.name!r} has no identities")
            if not (np.isfinite(g.concentration) and g.concentration > 0):
                raise ConfigError(f"group {g.name!r}: concentration must be finite and > 0")
            if not (np.isfinite(g.noise) and g.noise >= 0):
                raise ConfigError(f"group {g.name!r}: noise must be finite and >= 0")

    @property
    def n_identities(self) -> int:
        return sum(g.identities for g in self.groups)

    @property
    def n_images(self) -> int:
        return self.n_identities * self.images_per_identity

    def identity_group(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.groups)),
                         [g.identities for g in self.groups])


def parse_profile(text: str) -> BiasProfile:
    kv = parse_kv(text)
    n_groups = kv_get(kv, "groups", int)
    groups = []
    for gi in range(n_groups):
        prefix = f"group{gi}."
        groups.append(GroupSpec(
            name=kv_get(kv, prefix + "name", str, default=f"g{gi}"),
            identities=kv_get(kv, prefix + "identities", int),
            concentration=kv_get(kv, prefix + "concentration", float),
            noise=kv_get(kv, prefix + "noise", float),
        ))
    known = {"dim", "images_per_identity", "groups"}
    for key in kv:
        if key not in known and not (key.startswith("group") and "." in key):
            raise ConfigError(f"unknown profile key {key!r}")
    return BiasProfile(dim=kv_get(kv, "dim", int),
                       images_per_identity=kv_get(kv, "images_per_identity", int),
                       groups=tuple(groups))


def format_profile(profile: BiasProfile) -> str:
    lines = [f"dim = {profile.dim}",
             f"images_per_identity = {profile.images_per_identity}",
             f"groups = {len(profile.groups)}"]
    for gi, g in enumerate(profile.groups):
        lines += [f"group{gi}.name = {g.name}",
                  f"group{gi}.identities = {g.identities}",
                  f"group{gi}.concentration = {g.concentration!r}",
                  f"group{gi}.noise = {g.noise!r}"]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SynthTruth:
    """Exact construction record: what the generator actually drew."""

    seed: int
    profile: BiasProfile
    group_directions: np.ndarray   # (M, d) unit rows
    centers: np.ndarray            # (G, d) unit rows
    identity_group: np.ndarray     # (G,)

    def expected_s_inter_ranking(self) -> tuple:
        """Group indices ordered by expected mean inter-identity similarity, highest first."""
        conc = [g.concentration for g in self.profile.groups]
        return tuple(int(i) for i in np.argsort(conc)[::-1])

    @staticmethod
    def null_afpr_std_bound(realized_fpr: float, group_negatives) -> float:
        """Upper bound on the group-FPR std expected from counting noise alone.

        Groups of a zero-bias profile share one true rate p; each measured
        group rate then scatters with standard error sqrt(p(1-p)/n_g).  Four
        times the root-mean-square standard error is declared as the bound.
        """
        neg = np.asarray(group_negatives, dtype=np.float64)
        if np.any(neg <= 0):
            raise DomainError("every group needs negative pairs for the null bound")
        p = min(max(realized_fpr, 1.0 / neg.min()), 1.0 - 1.0 / neg.min())
        return 4.0 * float(np.sqrt(np.mean(p * (1.0 - p) / neg)))


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _draw_structure(profile: BiasProfile, seed: int, dim: int,
                    dir_stream: int, center_stream: int):
    """Group directions and unit identity centers for either output space."""
    m = len(profile.groups)
    dirs = _unit(seeded_rng(seed, dir_stream).normal(size=(m, dim)))
    rng = seeded_rng(seed, center_stream)
    centers = np.empty((profile.n_identities, dim), dtype=np.float64)
    row = 0
    for gi, g in enumerate(profile.groups):
        z = rng.normal(size=(g.identities, dim))
        centers[row:row + g.identities] = _unit(g.concentration * dirs[gi] + z)
        row += g.identities
    return dirs, centers


def _draw_images(profile: BiasProfile, centers: np.ndarray, rng) -> np.ndarray:
    """center + group-scaled isotropic noise, one block per group in order."""
    n, d = profile.n_images, centers.shape[1]
    ipi = profile.images_per_identity
    out = np.empty((n, d), dtype=np.float64)
    row_id = 0
    for g in profile.groups:
        n_img = g.identities * ipi
        block = np.repeat(centers[row_id:row_id + g.identities], ipi, axis=0)
        if g.noise > 0:
            block = block + g.noise * rng.normal(size=(n_img, d))
        out[row_id * ipi:(row_id + g.identities) * ipi] = block
        row_id += g.identities
    return out


def _labels(profile: BiasProfile) -> LabelTable:
    identities = []
    for g in profile.groups:
        identities += [f"{g.name}_{j:04d}" for j in range(g.identities)]
    return LabelTable(identities=tuple(identities),
                      attributes=tuple(g.name for g in profile.groups))


def gen_population(profile: BiasProfile, seed: int) -> tuple:
    """Embedding population in the profile's own space, plus its ground truth."""
    dirs, centers = _draw_structure(profile, seed, profile.dim,
                                    _STREAM_POP_DIRS, _STREAM_POP_CENTERS)
    images = _draw_images(profile, centers, seeded_rng(seed, _STREAM_POP_NOISE))
    ident = np.repeat(np.arange(profile.n_identities), profile.images_per_identity)
    attr = profile.identity_group()[ident]
    dataset = EmbeddingSet(vectors=images.astype(np.float32), identity=ident,
                           attribute=attr, labels=_labels(profile))
    truth = SynthTruth(seed=seed, profile=profile, group_directions=dirs,
                       centers=centers, identity_group=profile.identity_group())
    return dataset, truth


@dataclass(frozen=True)
class TrainingSet:
    """Raw pre-encoder samples with a per-identity disjoint train/eval split."""

    x: np.ndarray              # (n, d_in) float64
    y: np.ndarray              # (n,) identity indices
    attribute: np.ndarray      # (n,) group indices
    train_idx: np.ndarray
    eval_idx: np.ndarray
    labels: LabelTable
    truth: SynthTruth

    def to_embedding_set(self) -> EmbeddingSet:
        return EmbeddingSet(vectors=self.x.astype(np.float32), identity=self.y,
                            attribute=self.attribute, labels=self.labels)


def split_by_identity(identity: np.ndarray, eval_fraction: float = EVAL_FRACTION):
    """Per identity, the trailing images (in record order) become the eval split.

    Deterministic from record order alone, so a saved file re-splits the same
    way.  Every identity keeps at least one image on each side.  Both index
    arrays list the identities in increasing order, each in record order.
    """
    identity = np.asarray(identity)
    order = np.argsort(identity, kind="stable")
    keys, start, sizes = np.unique(identity[order], return_index=True, return_counts=True)
    small = np.flatnonzero(sizes < 2)
    if small.size:
        raise DegenerateDataError(f"identity {keys[small[0]]} has fewer than 2 images; cannot split")
    n_eval = np.minimum(sizes - 1, np.maximum(1, np.round(sizes * eval_fraction).astype(np.int64)))
    rank = np.arange(len(order)) - np.repeat(start, sizes)  # place within its identity
    held = rank >= np.repeat(sizes - n_eval, sizes)
    return order[~held], order[held]


def gen_training_set(profile: BiasProfile, d_in: int, seed: int) -> TrainingSet:
    """Raw training samples whose class geometry mirrors the profile's bias.

    Samples are scaled so each component is O(1) (vector norm ~ sqrt(d_in));
    unit-norm inputs would land in the flat region of the encoder's
    nonlinearity under standard weight init and stall training.
    """
    if profile.n_identities < 2:
        raise DomainError("training sets need at least 2 identities")
    if profile.images_per_identity < 2:
        raise DomainError("training sets need at least 2 images per identity")
    if d_in < 1:
        raise DomainError(f"raw dimension must be at least 1, got {d_in}")
    dirs, centers = _draw_structure(profile, seed, d_in,
                                    _STREAM_TRAIN_DIRS, _STREAM_TRAIN_CENTERS)
    x = np.sqrt(d_in) * _draw_images(profile, centers, seeded_rng(seed, _STREAM_TRAIN_NOISE))
    y = np.repeat(np.arange(profile.n_identities), profile.images_per_identity)
    attr = profile.identity_group()[y]
    train_idx, eval_idx = split_by_identity(y)
    truth = SynthTruth(seed=seed, profile=profile, group_directions=dirs,
                       centers=centers, identity_group=profile.identity_group())
    return TrainingSet(x=x, y=y, attribute=attr, train_idx=train_idx,
                       eval_idx=eval_idx, labels=_labels(profile), truth=truth)


def standard_biased_profile() -> BiasProfile:
    """Two groups, one crowded and noisy: the stock biased training task.

    The dense group's identity centers sit in a tight cone and its images
    scatter more, so its samples are both harder to separate and carry larger
    feature norms — the combination under which plain margin training
    develops a persistent bias difference while the mixing adapter drives
    it back down.
    """
    return BiasProfile(dim=32, images_per_identity=20, groups=(
        GroupSpec(name="dense", identities=32, concentration=28.0, noise=0.16),
        GroupSpec(name="sparse", identities=32, concentration=1.5, noise=0.07),
    ))


def zero_bias_profile(d: int = 32, groups: int = 2, identities: int = 32,
                      images: int = 20, concentration: float = 3.0,
                      noise: float = 0.35) -> BiasProfile:
    """All groups statistically identical; the null for noise-bound checks."""
    return BiasProfile(dim=d, images_per_identity=images, groups=tuple(
        GroupSpec(name=f"g{i}", identities=identities,
                  concentration=concentration, noise=noise)
        for i in range(groups)))
