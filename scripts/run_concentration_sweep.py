#!/usr/bin/env python3
"""Sweep one group's center concentration against a fixed reference group.

Higher concentration packs a group's identity centers into a smaller cone,
so its identities crowd each other. The sweep measures, at a fixed overall
FPR, how the swept group's mean inter-identity similarity (S_inter) and its
false-positive rate move together while the reference group stays put.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from fairpair.metrics import EvalConfig, evaluate_dataset
from fairpair.synth import BiasProfile, GroupSpec, gen_population
from fairpair.util import replaced


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kappas", default="2,6,18", help="swept-group concentrations")
    ap.add_argument("--fixed-kappa", type=float, default=6.0)
    ap.add_argument("--noise", type=float, default=0.2)
    ap.add_argument("--identities", type=int, default=40, help="per group")
    ap.add_argument("--images", type=int, default=15, help="per identity")
    ap.add_argument("--dim", type=int, default=48)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--target-fpr", type=float, default=1e-3)
    ap.add_argument("--k", type=int, default=20, help="neighbors for S_inter")
    ap.add_argument("--out", type=Path, default=None, help="optional CSV path")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    kappas = [float(s) for s in args.kappas.split(",")]
    config = EvalConfig(target_fpr=args.target_fpr, k=args.k)

    rows, said = [], set()
    for kappa in kappas:
        profile = BiasProfile(dim=args.dim, images_per_identity=args.images, groups=(
            GroupSpec(name="swept", identities=args.identities,
                      concentration=kappa, noise=args.noise),
            GroupSpec(name="fixed", identities=args.identities,
                      concentration=args.fixed_kappa, noise=args.noise),
        ))
        dataset, truth = gen_population(profile, seed=args.seed)
        report = evaluate_dataset(dataset, config)
        for warning in report.warnings:  # the same K clamp comes with every kappa
            if warning not in said:
                said.add(warning)
                print(warning, file=sys.stderr)
        result, s_inter = report.threshold, report.s_inter
        swept = truth.identity_group == 0
        rows.append({
            "kappa": kappa,
            "threshold": result.threshold,
            "s_inter_swept": float(s_inter[swept].mean()),
            "s_inter_fixed": float(s_inter[~swept].mean()),
            "afpr_swept": float(report.attributes.afpr[0]),
            "afpr_fixed": float(report.attributes.afpr[1]),
        })
        print(f"kappa {kappa:g}: threshold {result.threshold:.4f} "
              f"(realized {result.realized_fp}/{result.total_negatives})", file=sys.stderr)

    print(f"{'kappa':>6s} {'S_inter swept':>14s} {'S_inter fixed':>14s} "
          f"{'aFPR swept':>11s} {'aFPR fixed':>11s}")
    for row in rows:
        print(f"{row['kappa']:6g} {row['s_inter_swept']:14.4f} {row['s_inter_fixed']:14.4f} "
              f"{row['afpr_swept']:11.6f} {row['afpr_fixed']:11.6f}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        header = list(rows[0])
        with replaced([args.out]) as (tmp,), open(tmp, "w") as f:
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(str(row[h]) for h in header) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
