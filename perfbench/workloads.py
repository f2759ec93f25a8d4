"""The benchmark's workloads: inputs made from a seed, one operation, output checks.

eval-strict    5,600 x 512 (560 identities x 10 images, two equal groups of the
               criterion-8 profile), `fairpair eval` at target FPR 1e-5 on one
               worker. The rank sought is tiny (313 of 3.1e7 negatives) and
               d = 512 makes the GEMM the heaviest per-tile step.
eval-loose     6,400 x 128 (3,200 identities x 2 images, groups of concentration
               12 and 3), `fairpair eval` at target FPR 1e-2 on two workers
               (never more than nproc). The rank sought is large (409,472), so
               masking, selection and binning outweigh the GEMM, the
               per-identity neighbour search has 3,200 rows, and the worker
               merge path runs.
train-compare  the bias comparison of scripts/run_bias_comparison.py for seeds
               s, s+1, s+2: the script's own run_one trains in both modes,
               saves, encodes and evaluates the held-out split. Python-overhead-bound model and train code; barely any
               engine work.

The evaluation sets are about half the 12k of ROADMAP's bench sets so that
one run holds several evaluations (about 3 s each on a 2-core box); a run
with only one or two cannot be told apart from machine noise. Every
operation is made of calls to the package's public functions, so the
benchmark runs unchanged on any commit that keeps them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from fairpair import cli, metrics
from fairpair.metrics import EvalConfig, evaluate_dataset
from fairpair.model import batch_backward, batch_forward, load_model, xavier_init
from fairpair.pairwise import (neighbor_mean_similarity, sweep_histogram, topk_neighbors,
                               unit_rows)
from fairpair.store import EmbeddingSet, mean_vectors, save_dataset
from fairpair.synth import (BiasProfile, GroupSpec, gen_population, gen_training_set,
                            seeded_rng, standard_biased_profile)
from fairpair.train import TrainConfig, encode_dataset, load_trace, pair_samples, train

from machine import gemm_gflops, nproc
from spans import NULL, Tracer

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

REPORT_FILES = ("report.json", "per_identity.csv", "hist_intra.csv", "hist_inter.csv")
MODES = ("mixfair", "cosface")
MODEL_BLOCKS, MODEL_CALLS = 15, 20


@dataclass
class Outcome:
    """One operation: its wall time, the work it did, and what it produced."""

    seconds: float
    work: int                 # ordered pairs evaluated, or SGD iterations run
    work_seconds: float       # time spent on that work
    hashes: dict              # artifact -> sha256
    errors: list = field(default_factory=list)


@dataclass(frozen=True)
class EvalSpec:
    """The `fairpair eval` flags a workload runs with."""

    target_fpr: float
    k: int = 50
    bins: int = 200
    workers: int = 1

    def config(self) -> EvalConfig:
        return EvalConfig(target_fpr=self.target_fpr, k=self.k, bins=self.bins,
                          workers=self.workers)

    def argv(self, path: Path, out_dir: Path) -> list[str]:
        return ["eval", "--in", str(path), "--out-dir", str(out_dir),
                "--target-fpr", repr(self.target_fpr), "--k", str(self.k),
                "--bins", str(self.bins), "--workers", str(self.workers)]


# train-compare: the seeds s .. s+COMPARE_SEEDS-1 of scripts/run_bias_comparison.py,
# raw inputs of RAW_DIM, each model evaluated on its held-out split with COMPARE_SPEC.
COMPARE_SEEDS = 3
RAW_DIM = 32
COMPARE_SPEC = EvalSpec(target_fpr=1e-2)


class EvalInput:
    def __init__(self, path: Path, dataset: EmbeddingSet):
        self.path = path
        self.dataset = dataset

    @cached_property
    def digest(self) -> str:
        return self.dataset.content_hash()

    @property
    def resident_bytes(self) -> int:
        ds = self.dataset
        return ds.vectors.nbytes + ds.identity.nbytes + ds.attribute.nbytes


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_eval(path: Path, out_dir: Path, spec: EvalSpec) -> float:
    """Wall time of one `fairpair eval` through cli.main, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(spec.argv(path, out_dir))
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"fairpair eval exited with {code}: {err.getvalue().strip()}")
    return seconds


def report_errors(text: bytes, target_fpr: float, inp: EvalInput) -> list[str]:
    """Threshold guarantees of a report.json, checked against the input alone."""
    doc = json.loads(text)
    thr = doc["threshold"]
    n = inp.dataset.n
    sizes = np.bincount(inp.dataset.identity).tolist()
    neg = n * (n - 1) - sum(c * (c - 1) for c in sizes)
    errors = []
    if thr["total_neg"] != neg:
        errors.append(f"total_neg {thr['total_neg']} != {neg} from identity sizes")
    if thr["allowed_fp"] != int(Fraction(target_fpr) * neg):
        errors.append(f"allowed_fp {thr['allowed_fp']} != floor({target_fpr} * {neg})")
    if not thr["realized_fp"] <= thr["allowed_fp"]:
        errors.append(f"realized_fp {thr['realized_fp']} > allowed_fp {thr['allowed_fp']}")
    if doc["overall"]["fpr"] != thr["realized_fp"] / thr["total_neg"]:
        errors.append(f"overall fpr {doc['overall']['fpr']!r} != realized_fp / total_neg")
    if doc["dataset"]["hash"] != inp.digest:
        errors.append("report names another dataset hash than the input's")
    return errors


def eval_outcome(seconds: float, out_dir: Path, spec: EvalSpec, inp: EvalInput) -> Outcome:
    n = inp.dataset.n
    return Outcome(seconds=seconds, work=n * (n - 1), work_seconds=seconds,
                   hashes={f: _sha256(out_dir / f) for f in REPORT_FILES},
                   errors=report_errors((out_dir / "report.json").read_bytes(),
                                        spec.target_fpr, inp))


# The module attributes `fairpair eval` looks up, each timed as one span of a
# traced run, and the span name it gets. A call the program stops making
# leaves its span missing, and the traced run fails instead of drifting.
TRACED_CALLS = (
    (cli, "load_dataset", "store.load_dataset"),
    (cli, "evaluate_dataset", "metrics.evaluate_dataset"),
    (cli, "write_per_identity_csv", "metrics.write_csv"),
    (cli, "write_histogram_csv", "metrics.write_csv"),
    (cli, "_emit", "cli.emit"),
    (metrics, "solve_threshold", "pairwise.solve_threshold"),
    (metrics, "confusion_sweep", "pairwise.confusion_sweep"),
    (metrics, "mean_vectors", "store.mean_vectors"),
    (metrics, "intra_inter_similarity", "metrics.intra_inter_similarity"),
    (metrics, "build_report", "metrics.build_report"),
    (metrics.FairnessReport, "to_json", "metrics.report_json"),
)


def traced_eval(tracer, inp: EvalInput, spec: EvalSpec, out_dir: Path) -> Outcome:
    """One `fairpair eval` through cli.main, with a span around each call it makes."""
    with tracer.wrapped(TRACED_CALLS), tracer.span("cli.eval"):
        seconds = cli_eval(inp.path, out_dir, spec)
    return eval_outcome(seconds, out_dir, spec, inp)


def engine_probes(tracer, dataset: EmbeddingSet, spec: EvalSpec) -> tuple[float, float]:
    """Probe spans for the engine layers; returns (float64, float32) tile GEMM GFLOP/s."""
    cfg = spec.config()
    with tracer.span("pairwise.unit_rows", probe=True):
        u = unit_rows(dataset)
    with tracer.span("pairwise.sweep_histogram", probe=True):
        sweep_histogram(dataset, cfg.threshold_bins, tile=cfg.tile, workers=cfg.workers)
    means = mean_vectors(dataset)
    k = min(cfg.k, dataset.n_identities - 1)
    with tracer.span("pairwise.topk_neighbors", probe=True):
        neighbors = topk_neighbors(means, k)
    with tracer.span("pairwise.neighbor_mean_similarity", probe=True):
        neighbor_mean_similarity(means, neighbors)
    return gemm_gflops(u, np.float64), gemm_gflops(u, np.float32)


def model_probe(ts, seed: int) -> tuple[float, float]:
    """Per-call seconds of batch_forward and batch_backward on one fixed batch."""
    cfg = TrainConfig(d_in=ts.x.shape[1])
    idx = ts.train_idx[:cfg.batch_size]
    x, y = ts.x[idx], ts.y[idx]
    partners = pair_samples(y, seeded_rng(seed, 0))
    params = xavier_init(cfg.d_in, cfg.d_k, cfg.d_f, int(ts.y.max()) + 1,
                         seeded_rng(seed, 1), scale=cfg.scale, margin=cfg.margin)
    cache = batch_forward(x, y, partners, params)
    fwd, bwd = [], []
    for _ in range(MODEL_BLOCKS):
        t0 = time.perf_counter()
        for _ in range(MODEL_CALLS):
            batch_forward(x, y, partners, params)
        t1 = time.perf_counter()
        for _ in range(MODEL_CALLS):
            batch_backward(cache, params)
        t2 = time.perf_counter()
        fwd.append((t1 - t0) / MODEL_CALLS)
        bwd.append((t2 - t1) / MODEL_CALLS)
    return statistics.median(fwd), statistics.median(bwd)


def train_config(ts, mode: str, seed: int, epochs: int | None) -> TrainConfig:
    """The default TrainConfig for a training set; epochs None keeps the default count."""
    kwargs = dict(d_in=ts.x.shape[1], n_id=int(ts.y.max()) + 1, mode=mode, seed=seed)
    if epochs is not None:
        kwargs["epochs"] = epochs
    return TrainConfig(**kwargs)


def train_probe(tracer, seed: int, epochs: int | None):
    """One mixfair training on the standard biased profile, as probe spans.

    Returns the training set and the iterations run.
    """
    with tracer.span("synth.gen_training_set", probe=True):
        ts = gen_training_set(standard_biased_profile(), RAW_DIM, seed)
    with tracer.span("train.train", probe=True):
        params, trace = train(train_config(ts, "mixfair", seed, epochs),
                              ts.x[ts.train_idx], ts.y[ts.train_idx])
    with tracer.span("train.encode_dataset", probe=True):
        encode_dataset(params, ts.x[ts.eval_idx], ts.y[ts.eval_idx],
                       ts.attribute[ts.eval_idx], ts.labels)
    return ts, trace.iterations


def _trace_errors(trace, expected: int) -> list[str]:
    errors = []
    if trace.iterations != expected:
        errors.append(f"trace has {trace.iterations} iterations, expected {expected}")
    if not (np.isfinite(trace.loss).all() and np.isfinite(trace.mean_abs_eps).all()):
        errors.append("trace holds non-finite values")
    return errors


@functools.cache
def comparison_script():
    """scripts/run_bias_comparison.py of this checkout, imported as a module."""
    spec = importlib.util.spec_from_file_location("run_bias_comparison",
                                                  SCRIPTS / "run_bias_comparison.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare_calls(script) -> tuple:
    """The calls run_one makes, each timed as one span, as TRACED_CALLS does for eval."""
    return ((script, "train", "train.train"),
            (script, "save_model", "train.save"),
            (script, "save_trace", "train.save"),
            (script, "encode_dataset", "train.encode_dataset"),
            (script, "evaluate_dataset", "metrics.evaluate_dataset"),
            (metrics.FairnessReport, "to_json", "metrics.report_json"))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalWorkload:
    name: str
    profile: BiasProfile
    spec: EvalSpec
    epochs: int | None = None   # epochs of the training probe; None = default

    @property
    def shape(self) -> dict:
        return {"n": self.profile.n_images, "d": self.profile.dim,
                "g": self.profile.n_identities, "workers": self.spec.workers}

    def setup(self, work: Path, seed: int, tracer=NULL) -> EvalInput:
        with tracer.span("synth.gen_population"):
            dataset, _ = gen_population(self.profile, seed)
        path = work / "input.ffeb"
        with tracer.span("store.save_dataset"):
            save_dataset(path, dataset)
        return EvalInput(path, dataset)

    def op(self, inp: EvalInput, out_dir: Path) -> Outcome:
        return eval_outcome(cli_eval(inp.path, out_dir, self.spec), out_dir, self.spec, inp)

    def traced_op(self, inp: EvalInput, out_dir: Path, tracer) -> Outcome:
        return traced_eval(tracer, inp, self.spec, out_dir)

    def peak_bytes(self, inp: EvalInput, out_dir: Path) -> tuple[int, list[str]]:
        """The criterion-8 formula: tracemalloc peak of one evaluation plus the dataset."""
        tracemalloc.start()
        try:
            report = evaluate_dataset(inp.dataset, self.spec.config())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = (report.to_json() + "\n").encode()
        return peak + inp.resident_bytes, report_errors(text, self.spec.target_fpr, inp)


class CompareInput:
    def __init__(self, sets: list):
        self.sets = sets          # [(seed, TrainingSet)]

    @property
    def resident_bytes(self) -> int:
        return sum(ts.x.nbytes + ts.y.nbytes + ts.attribute.nbytes for _, ts in self.sets)


@dataclass(frozen=True)
class CompareWorkload:
    name: str
    epochs: int | None = None     # None keeps TrainConfig's default

    @property
    def shape(self) -> dict:
        prof = standard_biased_profile()
        return {"n": prof.n_images, "d": RAW_DIM, "g": prof.n_identities,
                "seeds": COMPARE_SEEDS, "modes": list(MODES), "workers": COMPARE_SPEC.workers}

    def setup(self, work: Path, seed: int, tracer=NULL) -> CompareInput:
        sets = []
        for s in range(seed, seed + COMPARE_SEEDS):
            with tracer.span("synth.gen_training_set"):
                sets.append((s, gen_training_set(standard_biased_profile(), RAW_DIM, s)))
        return CompareInput(sets)

    def op(self, inp: CompareInput, out_dir: Path, tracer=NULL) -> Outcome:
        """One comparison pass: the script's run_one for every seed and mode."""
        script = comparison_script()
        spans = tracer if isinstance(tracer, Tracer) else Tracer()   # times train() always
        run = spans.new_run()
        runs = []
        t0 = time.perf_counter()
        with spans.wrapped(compare_calls(script)), spans.span("compare"):
            for seed, ts in inp.sets:
                for mode in MODES:
                    run_dir = out_dir / f"{mode}_seed{seed}"
                    script.run_one(ts, mode, seed, self.epochs, run_dir,
                                   COMPARE_SPEC.target_fpr, COMPARE_SPEC.k)
                    runs.append((run_dir, ts, train_config(ts, mode, seed, self.epochs)))
        seconds = time.perf_counter() - t0

        hashes, errors, iters = {}, [], 0
        for run_dir, ts, config in runs:
            trace = load_trace(run_dir / "trace.csv")
            iters += trace.iterations
            n_rows = len(ts.train_idx)
            expected = config.epochs * (n_rows // min(config.batch_size, n_rows))
            errors += [f"{run_dir.name}: {e}" for e in _trace_errors(trace, expected)]
            # The held-out set encoded by the saved model is what the report must describe.
            encoded = encode_dataset(load_model(run_dir / "model.ffmp"), ts.x[ts.eval_idx],
                                     ts.y[ts.eval_idx], ts.attribute[ts.eval_idx], ts.labels)
            report = (run_dir / "report.json").read_bytes()
            errors += [f"{run_dir.name}: {e}" for e in
                       report_errors(report, COMPARE_SPEC.target_fpr, EvalInput(None, encoded))]
            for f in ("trace.csv", "report.json"):
                hashes[f"{run_dir.name}/{f}"] = _sha256(run_dir / f)
        return Outcome(seconds=seconds, work=iters, work_seconds=spans.total("train.train", run),
                       hashes=hashes, errors=errors)

    def traced_op(self, inp: CompareInput, out_dir: Path, tracer) -> Outcome:
        return self.op(inp, out_dir, tracer)

    def peak_bytes(self, inp: CompareInput, out_dir: Path) -> tuple[int, list[str]]:
        """tracemalloc peak of one comparison pass plus the training sets."""
        tracemalloc.start()
        try:
            outcome = self.op(inp, out_dir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak + inp.resident_bytes, outcome.errors

    def eval_input(self, inp: CompareInput, work: Path, tracer) -> tuple[EvalInput, EvalSpec]:
        """The held-out set of the first seed, encoded by a mixfair model, saved as FFEB."""
        seed, ts = inp.sets[0]
        params, _ = train(train_config(ts, "mixfair", seed, self.epochs),
                          ts.x[ts.train_idx], ts.y[ts.train_idx])
        encoded = encode_dataset(params, ts.x[ts.eval_idx], ts.y[ts.eval_idx],
                                 ts.attribute[ts.eval_idx], ts.labels)
        path = work / "heldout.ffeb"
        with tracer.span("store.save_dataset"):
            save_dataset(path, encoded)
        return EvalInput(path, encoded), COMPARE_SPEC


# ---------------------------------------------------------------------------

def _eval_profile(dim: int, images: int, groups) -> BiasProfile:
    return BiasProfile(dim=dim, images_per_identity=images, groups=tuple(
        GroupSpec(name=name, identities=ids, concentration=conc, noise=noise)
        for name, ids, conc, noise in groups))


def workloads(size: str) -> dict:
    """Workload name -> workload, at full size or at the tiny size the tests run."""
    workers = min(2, nproc())
    if size == "full":
        strict = _eval_profile(512, 10, [("a", 280, 8.0, 0.35), ("b", 280, 8.0, 0.35)])
        loose = _eval_profile(128, 2, [("a", 1600, 12.0, 0.3), ("b", 1600, 3.0, 0.3)])
        epochs = None
    else:
        strict = _eval_profile(32, 4, [("a", 30, 8.0, 0.35), ("b", 30, 8.0, 0.35)])
        loose = _eval_profile(16, 2, [("a", 60, 12.0, 0.3), ("b", 60, 3.0, 0.3)])
        epochs = 2
    return {
        "eval-strict": EvalWorkload("eval-strict", strict, EvalSpec(target_fpr=1e-5),
                                    epochs=epochs),
        "eval-loose": EvalWorkload("eval-loose", loose,
                                   EvalSpec(target_fpr=1e-2, workers=workers),
                                   epochs=epochs),
        "train-compare": CompareWorkload("train-compare", epochs=epochs),
    }
