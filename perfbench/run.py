#!/usr/bin/env python3
"""fairpair benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-strict --seed 5 --seconds 40 --trace 0

The inputs are made from --seed. Operations repeat until --seconds have passed
(at least one runs). --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. The line before it is the run
record: machine, workload shape, every sample and every failure. The record
and, for a traced run, its spans are also written to .perfbench/runs/.
`--workload all` runs every workload in turn in this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import machine
from spans import NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("eval-strict", "eval-loose", "train-compare")
SETUP_REPS = 25
MIB = float(1 << 20)


class Fatal(Exception):
    """The run cannot produce a result."""


class Tally:
    """Operations attempted and failed; an operation fails if it raises or its check fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:   # a failing operation is counted and reported, not fatal
            self.check(what, [traceback.format_exc(limit=4)])
            return None

    def check(self, what: str, errors: list[str]) -> None:
        if errors:
            self.failed += 1
            for e in errors:
                self.errors.append(f"{what}: {e}")
                print(f"perfbench: {what}: {e}", file=sys.stderr)


def hash_errors(hashes: dict, reference: dict | None, pinned: dict) -> list[str]:
    errors = []
    if reference is not None and hashes != reference:
        errors.append("outputs differ from the first operation of this run")
    for name, digest in pinned.items():
        if hashes.get(name) != digest:
            errors.append(f"{name} sha256 {hashes.get(name)} != pinned {digest}")
    return errors


def measure(wl, seed: int, seconds: float, traced: bool, pinned: dict, work: Path):
    """Set up, repeat the operation for `seconds`, and (traced) trace one and probe."""
    tracer = Tracer() if traced else NULL
    tally = Tally()

    setup_s, inp = [], None
    for _ in range(1 if traced else SETUP_REPS):
        t0 = time.perf_counter()
        inp = tally.attempt("setup", wl.setup, work, seed, tracer)
        setup_s.append(time.perf_counter() - t0)
    if inp is None:
        raise Fatal("setup failed")

    peak = None
    if not traced:   # untimed first operation: warms up and gives the memory peak
        result = tally.attempt("peak", wl.peak_bytes, inp, work / "peak")
        if result is not None:
            peak, errors = result
            tally.check("peak", errors)

    outcomes, reference, ops = [], None, 0
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < seconds:
        ops += 1
        out_dir = work / "op"
        outcome = tally.attempt("op", wl.op, inp, out_dir)
        if outcome is not None:
            tally.check(f"op {len(outcomes)}",
                        outcome.errors + hash_errors(outcome.hashes, reference, pinned))
            reference = reference or outcome.hashes
            outcomes.append(outcome)
        shutil.rmtree(out_dir, ignore_errors=True)
    if not outcomes:
        raise Fatal("no operation succeeded")

    op_s = [o.seconds for o in outcomes]
    samples = {"setup_s": setup_s, "op_s": op_s,
               "work_per_s": [o.work / o.work_seconds for o in outcomes]}
    if not traced:
        if peak is None:
            raise Fatal("memory peak not measured")
        samples["peak_mib"] = [peak / MIB]
        metrics = {"setup_s": (statistics.median(setup_s), "s"),
                   "op_s": (statistics.median(op_s), "s"),
                   "work_per_s": (statistics.median(samples["work_per_s"]), "1/s"),
                   "peak_mib": (peak / MIB, "MiB")}
    else:
        metrics = layers(wl, inp, seed, statistics.median(op_s), reference, pinned,
                         tracer, tally, work)
    return metrics, tally, samples, reference, tracer


def layers(wl, inp, seed, op_s, reference, pinned, tracer, tally, work) -> dict:
    """Per-layer metrics from one traced operation, the traced CLI eval and the probes."""
    import workloads

    tracer.new_run()
    traced = tally.attempt("traced op", wl.traced_op, inp, work / "traced", tracer)
    if traced is None:
        raise Fatal("traced operation failed")
    tally.check("traced op", traced.errors + hash_errors(traced.hashes, reference, pinned))

    compare = isinstance(wl, workloads.CompareWorkload)
    if compare:   # the engine layers are traced on a held-out set through the CLI
        def heldout():
            ev, spec = wl.eval_input(inp, work, tracer)
            run = tracer.new_run()
            return ev, spec, run, workloads.traced_eval(tracer, ev, spec, work / "heldout")
        result = tally.attempt("held-out eval", heldout)
        if result is None:
            raise Fatal("held-out eval failed")
        ev, spec, eval_run, outcome = result
        tally.check("held-out eval", outcome.errors)
        out_dir = work / "heldout"
    else:
        ev, spec, eval_run, out_dir = inp, wl.spec, tracer.run, work / "traced"
    allowed_fp = json.loads((out_dir / "report.json").read_text())["threshold"]["allowed_fp"]

    tracer.new_run()
    gemm64, gemm32 = workloads.engine_probes(tracer, ev.dataset, spec)
    if compare:
        ts, iters = inp.sets[0][1], traced.work // (2 * len(inp.sets))
        with tracer.span("synth.gen_population", probe=True):
            workloads.gen_population(workloads.standard_biased_profile(), seed)
    else:
        ts, iters = workloads.train_probe(tracer, seed, wl.epochs)
    fwd, bwd = workloads.model_probe(ts, seed)

    def span_s(name, run=None, reduce=tracer.median):
        try:
            return reduce(name, run)
        except KeyError:
            raise Fatal(f"no {name} span: the program no longer makes this call") from None

    def run_median(name):
        return span_s(name, eval_run)

    n, d = ev.dataset.n, ev.dataset.dim
    pairs = n * (n - 1)
    solve, sweep = run_median("pairwise.solve_threshold"), run_median("pairwise.confusion_sweep")
    probe = span_s("pairwise.sweep_histogram")
    hist_gflops = 2.0 * n * n * d / probe / 1e9
    cli_eval, evaluate = run_median("cli.eval"), run_median("metrics.evaluate_dataset")
    root = next(i for i, s in enumerate(tracer.spans)
                if s.name == "cli.eval" and s.run == eval_run)
    train_s = span_s("train.train")
    values = {
        "pairwise.solve_threshold_s": (solve, "s"),
        "pairwise.solve_threshold.pairs_per_s": (pairs / solve, "1/s"),
        "pairwise.confusion_sweep_s": (sweep, "s"),
        "pairwise.confusion_sweep.pairs_per_s": (pairs / sweep, "1/s"),
        "pairwise.sweep_histogram_s": (probe, "s"),
        "pairwise.solve_threshold.sweep_equiv": (solve / probe, "ratio"),
        "pairwise.sweep_histogram.gemm_gflops": (hist_gflops, "GFLOP/s"),
        "pairwise.gemm_fraction": (hist_gflops / gemm64, "ratio"),
        "pairwise.unit_rows_s": (span_s("pairwise.unit_rows"), "s"),
        "pairwise.topk_neighbors_s": (span_s("pairwise.topk_neighbors"), "s"),
        "pairwise.neighbor_mean_similarity_s":
            (span_s("pairwise.neighbor_mean_similarity"), "s"),
        "pairwise.allowed_fp": (allowed_fp, "count"),
        "metrics.intra_inter_similarity_s": (run_median("metrics.intra_inter_similarity"), "s"),
        "metrics.evaluate_dataset_s": (evaluate, "s"),
        "metrics.build_report_s": (run_median("metrics.build_report"), "s"),
        "metrics.report_json_s": (run_median("metrics.report_json"), "s"),
        "metrics.write_csv_s": (span_s("metrics.write_csv", eval_run, tracer.total), "s"),
        "store.load_dataset_s": (run_median("store.load_dataset"), "s"),
        "store.save_dataset_s": (span_s("store.save_dataset"), "s"),
        "store.mean_vectors_s": (run_median("store.mean_vectors"), "s"),
        "store.dataset_mib": (ev.resident_bytes / MIB, "MiB"),
        "synth.gen_population_s": (span_s("synth.gen_population"), "s"),
        "synth.gen_training_set_s": (span_s("synth.gen_training_set"), "s"),
        "cli.eval_s": (cli_eval, "s"),
        "cli.io_s": (cli_eval - evaluate, "s"),
        "cli.emit_s": (run_median("cli.emit"), "s"),
        "model.batch_forward_s": (fwd, "s"),
        "model.batch_backward_s": (bwd, "s"),
        "train.train_s": (train_s, "s"),
        "train.iters": (iters, "count"),
        "train.iters_per_s": (iters / train_s, "1/s"),
        "train.step_overhead_s": ((train_s - iters * (fwd + bwd)) / iters, "s"),
        "train.encode_dataset_s": (span_s("train.encode_dataset"), "s"),
        "machine.gemm64_gflops": (gemm64, "GFLOP/s"),
        "machine.gemm32_gflops": (gemm32, "GFLOP/s"),
        "trace.overhead_s": (traced.seconds - op_s, "s"),
        "trace.attributed_share": (1.0 - tracer.self_times()[root] / cli_eval, "ratio"),
    }
    return values


def import_package() -> None:
    """Put the checkout's own sources first on the path; fail if they are missing."""
    if not (SRC / "fairpair" / "__init__.py").is_file():
        raise Fatal(f"no fairpair sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fairpair
    if Path(fairpair.__file__).resolve().parent != (SRC / "fairpair").resolve():
        raise Fatal(f"imported fairpair from {fairpair.__file__}, not from {SRC}")


def run_one(name: str, args) -> None:
    import workloads   # imports fairpair, so only after import_package

    wl = workloads.workloads(args.size)[name]
    pins = json.loads(PINS.read_text())
    pinned = (pins.get(args.size, {}).get(name, {}) if args.seed == pins["seed"] else {})
    work = OUT / "work" / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, tally, samples, hashes, tracer = measure(
            wl, args.seed, args.seconds, bool(args.trace), pinned, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "shape": wl.shape,
              "machine": machine.record(wl.shape["workers"]), "pinned": bool(pinned),
              "hashes": hashes, "samples": samples,
              "fail_ratio": tally.failed / tally.attempted, "errors": tally.errors}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    dump = dict(record, result=result, spans=tracer.dump() if args.trace else [])
    (runs / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(dump))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            run_one(name, args)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
