#!/usr/bin/env python3
"""Side-by-side training comparison on the standard biased profile.

Trains the feature-mixing debias mode and the plain-margin baseline on the
same data for each seed, then evaluates both on the held-out images. The
headline numbers are the residual bias signal (mean |eps| over the last 500
iterations) and the spread of per-identity FPRs at the eval threshold.

Writes one directory per (mode, seed) holding model.ffmp, trace.csv and
report.json, plus a compare.csv with one row per run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from fairpair.metrics import EvalConfig, evaluate_dataset
from fairpair.model import save_model
from fairpair.synth import gen_training_set, standard_biased_profile
from fairpair.train import TrainConfig, encode_dataset, save_trace, train
from fairpair.util import replaced


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("runs/bias_comparison"))
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated data/train seeds")
    ap.add_argument("--raw-dim", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=None, help="override the 40-epoch default")
    ap.add_argument("--eval-target-fpr", type=float, default=1e-2)
    ap.add_argument("--k", type=int, default=50)
    return ap.parse_args(argv)


def run_one(ts, mode, seed, epochs, out_dir, eval_target, k):
    kwargs = dict(d_in=ts.x.shape[1], n_id=int(ts.y.max()) + 1, mode=mode, seed=seed)
    if epochs is not None:
        kwargs["epochs"] = epochs
    config = TrainConfig(**kwargs)
    params, trace = train(config, ts.x[ts.train_idx], ts.y[ts.train_idx])

    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(out_dir / "model.ffmp", params)
    save_trace(out_dir / "trace.csv", trace)

    encoded = encode_dataset(params, ts.x[ts.eval_idx], ts.y[ts.eval_idx],
                             ts.attribute[ts.eval_idx], ts.labels)
    report = evaluate_dataset(encoded, EvalConfig(target_fpr=eval_target, k=k))
    with replaced([out_dir / "report.json"]) as (tmp,):
        tmp.write_text(report.to_json() + "\n")

    window = min(500, trace.iterations)
    return {
        "mode": mode,
        "seed": seed,
        "iterations": trace.iterations,
        "final_loss": float(trace.loss[-1]),
        "tail_mean_abs_eps": trace.tail_mean_abs_eps(window),
        "ifpr_std": report.identities.ifpr_std,
        "afpr_std": report.attributes.afpr_std,
    }


def main(argv=None):
    args = parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    profile = standard_biased_profile()

    rows = []
    for seed in seeds:
        ts = gen_training_set(profile, d_in=args.raw_dim, seed=seed)
        print(f"seed {seed}: {len(ts.train_idx)} train / {len(ts.eval_idx)} eval images",
              file=sys.stderr)
        for mode in ("mixfair", "cosface"):
            run_dir = args.out_dir / f"{mode}_seed{seed}"
            row = run_one(ts, mode, seed, args.epochs, run_dir,
                          args.eval_target_fpr, args.k)
            rows.append(row)
            print(f"  {mode:8s} tail|eps| {row['tail_mean_abs_eps']:.5f}  "
                  f"iFPR-std {row['ifpr_std']:.5f}  final loss {row['final_loss']:.4f}",
                  file=sys.stderr)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    header = list(rows[0])
    with replaced([args.out_dir / "compare.csv"]) as (tmp,), open(tmp, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(row[h]) for h in header) + "\n")

    by_seed = {s: {r["mode"]: r for r in rows if r["seed"] == s} for s in seeds}
    print(f"{'seed':>4s} {'tail|eps| mix':>14s} {'tail|eps| cos':>14s} "
          f"{'ratio':>6s} {'iFPR-std mix':>13s} {'iFPR-std cos':>13s}")
    for s in seeds:
        mix, cos = by_seed[s]["mixfair"], by_seed[s]["cosface"]
        print(f"{s:4d} {mix['tail_mean_abs_eps']:14.5f} {cos['tail_mean_abs_eps']:14.5f} "
              f"{mix['tail_mean_abs_eps'] / cos['tail_mean_abs_eps']:6.2f} "
              f"{mix['ifpr_std']:13.5f} {cos['ifpr_std']:13.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
