"""Command-line interface.

Subcommands: synth, eval, analyze, train-toy, grad-check, convert.
Progress goes to stderr; stdout carries machine-readable JSON only.  Exit
codes are a stable contract: 0 ok, 2 bad configuration, 3 I/O or format
problem, 4 degenerate data (e.g. no negative pairs), 5 training divergence
(grad-check additionally exits 1 when the check itself fails).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DegenerateDataError, DivergenceError,
                     DomainError, FormatError, PairingError, ValidationError)
from .metrics import (EvalConfig, dumps_stable, evaluate_dataset,
                      intra_inter_similarity, write_histogram_csv,
                      write_per_identity_csv, write_similarity_csv)
from .model import grad_check, save_model
from .store import load_csv, load_dataset, mean_vectors, save_csv, save_dataset
from .synth import (gen_population, gen_training_set, parse_profile, seeded_rng,
                    split_by_identity)
from .train import TrainConfig, encode_dataset, parse_train_config, save_trace, train
from .util import replaced, require_parent

WORKERS_ENV = "FAIRPAIR_WORKERS"
# train-toy flags that override the TrainConfig field of the same name when given
TRAIN_FLAGS = ("mode", "epochs", "batch_size", "lr", "seed", "d_k", "d_f", "detach_eps")


def _progress(msg: str) -> None:
    print(f"[fairpair] {msg}", file=sys.stderr, flush=True)


def _emit(doc: dict | str) -> None:
    """Write one JSON document to stdout; a str is one already serialized, newline included."""
    sys.stdout.write(doc if isinstance(doc, str) else dumps_stable(doc) + "\n")


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return args.workers
    if not os.environ.get(WORKERS_ENV):
        return 1
    try:
        return int(os.environ[WORKERS_ENV])
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, "
                          f"got {os.environ[WORKERS_ENV]!r}")


def _eval_config(args) -> EvalConfig:
    return EvalConfig(target_fpr=args.target_fpr, k=args.k, bins=args.bins,
                      workers=_resolve_workers(args))


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path}: byte {exc.start} is not UTF-8 text") from exc


def _out_dir(path: str) -> Path:
    """The output directory `path`, checked before any work and made later: its
    nearest existing ancestor, itself included, must be a directory."""
    out = p = Path(path)
    while not p.exists() and p != p.parent:
        p = p.parent
    if not p.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    return out


def _load_ffeb(path):
    if not Path(path).exists():
        raise FormatError(f"input file not found: {path}")
    return load_dataset(path)


# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    profile = parse_profile(_read_text(args.profile, "profile"))
    if args.raw_dim is not None:
        _progress(f"generating raw training set (d_in={args.raw_dim}, seed={args.seed})")
        ts = gen_training_set(profile, args.raw_dim, args.seed)
        dataset = ts.to_embedding_set()
    else:
        _progress(f"generating embedding population (d={profile.dim}, seed={args.seed})")
        dataset, _ = gen_population(profile, args.seed)
    save_dataset(args.out, dataset)
    _emit({"out": str(args.out), "n": dataset.n, "d": dataset.dim,
           "g": dataset.n_identities, "m": dataset.n_attributes,
           "hash": dataset.content_hash()})
    return 0


def _write_report(report, out_dir: Path, dataset) -> str:
    """Write the report files; returns the text of report.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = np.bincount(dataset.identity, minlength=dataset.n_identities)
    report.per_identity_csv_path = "per_identity.csv"
    names = ("per_identity.csv", "hist_intra.csv", "hist_inter.csv", "report.json")
    with replaced([out_dir / name for name in names]) as (ident, intra, inter, doc):
        write_per_identity_csv(ident, dataset, report.identities,
                               report.s_intra, report.s_inter, counts)
        write_histogram_csv(intra, report.intra_hist)
        write_histogram_csv(inter, report.inter_hist)
        text = report.to_json() + "\n"
        doc.write_text(text)
    return text


def cmd_eval(args) -> int:
    config = _eval_config(args)
    out_dir = _out_dir(args.out_dir)
    dataset = _load_ffeb(args.input)
    _progress(f"loaded {dataset.n} x {dataset.dim} "
              f"({dataset.n_identities} identities, {dataset.n_attributes} attributes)")
    report = evaluate_dataset(dataset, config, progress=_progress)
    text = _write_report(report, out_dir, dataset)
    _progress(f"report written to {args.out_dir}")
    _emit(text)
    return 0


def cmd_analyze(args) -> int:
    config = EvalConfig(k=args.k)
    if args.out:
        require_parent(Path(args.out))
    dataset = _load_ffeb(args.input)
    k, note = config.clamped_k(dataset.n_identities)
    if note:
        _progress(note)
    s_intra, s_inter = intra_inter_similarity(dataset, mean_vectors(dataset), k)
    if args.out:
        with replaced([Path(args.out)]) as (tmp,):
            write_similarity_csv(tmp, dataset, s_intra, s_inter)
        _progress(f"per-identity similarity written to {args.out}")
    ident_attr = dataset.identity_attribute()
    groups = {}
    for t, name in enumerate(dataset.labels.attributes):
        mask = ident_attr == t
        n = int(mask.sum())   # a group with no identities has no means
        groups[name] = {"mean_s_intra": float(s_intra[mask].mean()) if n else None,
                        "mean_s_inter": float(s_inter[mask].mean()) if n else None,
                        "identities": n}
    _emit({"k": k, "groups": groups,
           "overall": {"mean_s_intra": float(s_intra.mean()),
                       "mean_s_inter": float(s_inter.mean())}})
    return 0


def cmd_train_toy(args) -> int:
    eval_cfg = _eval_config(args)
    out_dir = _out_dir(args.out_dir)
    dataset = _load_ffeb(args.data)
    base = parse_train_config(_read_text(args.config, "training config"),
                              d_in=dataset.dim) if args.config else TrainConfig(d_in=dataset.dim)
    overrides = {name: getattr(args, name) for name in TRAIN_FLAGS
                 if getattr(args, name) is not None}
    config = dataclasses.replace(base, d_in=dataset.dim, n_id=dataset.n_identities,
                                 **overrides)

    x = dataset.vectors.astype(np.float64)
    train_idx, eval_idx = split_by_identity(dataset.identity)
    _progress(f"training mode={config.mode} on {len(train_idx)} samples "
              f"({config.epochs} epochs, batch {config.batch_size}, seed {config.seed})")
    params, trace = train(config, x[train_idx], dataset.identity[train_idx])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(out_dir / "model.ffmp", params)
    save_trace(out_dir / "trace.csv", trace)
    _progress(f"trained {trace.iterations} iterations; final loss {trace.loss[-1]:.6g}")

    encoded = encode_dataset(params, x[eval_idx], dataset.identity[eval_idx],
                             dataset.attribute[eval_idx], dataset.labels)
    report = evaluate_dataset(encoded, eval_cfg, progress=_progress)
    _write_report(report, out_dir, encoded)

    window = min(500, trace.iterations)
    _emit({"mode": config.mode, "iterations": trace.iterations,
           "final_loss": float(trace.loss[-1]),
           "tail_mean_abs_eps": trace.tail_mean_abs_eps(window),
           "tail_window": window,
           "ifpr_std": report.identities.ifpr_std,
           "afpr_std": report.attributes.afpr_std,
           "out_dir": str(out_dir)})
    return 0


def cmd_grad_check(args) -> int:
    if args.configs < 1:
        raise ConfigError(f"--configs must be at least 1, got {args.configs}")
    for flag in ("step", "tol"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{flag} must be finite and positive, got {value}")
    rng = seeded_rng(args.seed, 30)
    errs = []
    for i in range(args.configs):
        d_in, d_k, d_f = (int(rng.integers(4, 33)) for _ in range(3))
        n_id = int(rng.integers(4, 17))
        batch = int(rng.integers(4, 13))
        use_eps = bool(i % 3 != 2)           # mix debiased and plain losses
        enc = "softplus" if i % 2 == 0 else "identity"
        deb = "identity" if i % 4 != 3 else "softplus"
        err = grad_check(d_in, d_k, d_f, n_id, batch, rng, step=args.step,
                         use_eps=use_eps, encoder_act=enc, debias_act=deb)
        errs.append(err)
        _progress(f"config {i + 1}/{args.configs}: d=({d_in},{d_k},{d_f}) "
                  f"n_id={n_id} batch={batch} rel_err={err:.3g}")
    worst = float(np.max(errs))  # NaN if any error is: the check then fails
    passed = worst < args.tol
    _emit({"configs": args.configs, "step": args.step, "tol": args.tol,
           "max_rel_err": worst, "pass": passed})
    return 0 if passed else 1


def cmd_convert(args) -> int:
    src, dst = Path(args.input), Path(args.out)
    if src.suffix == ".csv" and dst.suffix == ".ffeb":
        if not src.exists():
            raise FormatError(f"input file not found: {src}")
        dataset = load_csv(src)
        save_dataset(dst, dataset)
    elif src.suffix == ".ffeb" and dst.suffix == ".csv":
        dataset = _load_ffeb(src)
        save_csv(dst, dataset)
    else:
        raise ConfigError(f"cannot convert {src.suffix or '(none)'} to "
                          f"{dst.suffix or '(none)'}; use .csv and .ffeb")
    _emit({"in": str(src), "out": str(dst), "n": dataset.n, "d": dataset.dim,
           "hash": dataset.content_hash()})
    return 0


# ---------------------------------------------------------------------------

def _add_common(p) -> None:
    p.add_argument("--workers", type=int, default=None,
                   help=f"similarity worker threads (default ${WORKERS_ENV} or 1)")


def _add_eval_flags(p, target_default: float) -> None:
    p.add_argument("--target-fpr", type=float, default=target_default)
    p.add_argument("--k", type=int, default=50,
                   help="closest other-identity means per identity")
    p.add_argument("--bins", type=int, default=200, help="histogram bins")
    _add_common(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fairpair",
                                 description="Fairness evaluation for face-recognition "
                                             "embeddings, with a toy debias trainer.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic embedding set")
    p.add_argument("--profile", required=True, help="bias profile key-value file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .ffeb path")
    p.add_argument("--raw-dim", type=int, default=None,
                   help="emit a raw (pre-encoder) training set of this dimension")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="full fairness evaluation of an embedding set")
    p.add_argument("--in", dest="input", required=True, help="input .ffeb path")
    p.add_argument("--out-dir", required=True)
    _add_eval_flags(p, 1e-5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="intra/inter similarity analysis only")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--out", default=None, help="optional per-identity CSV path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train-toy", help="train the toy debias model and evaluate it")
    p.add_argument("--data", required=True, help="raw training set (.ffeb)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=("mixfair", "cosface"), default=None,
                   help="training mode (default: the config's, else mixfair)")
    p.add_argument("--config", default=None, help="training config key-value file")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--d-k", type=int, default=None)
    p.add_argument("--d-f", type=int, default=None)
    p.add_argument("--detach-eps", action="store_true", default=None,
                   help="stop-gradient ablation for the bias difference")
    p.add_argument("--eval-target-fpr", dest="target_fpr", type=float, default=1e-2,
                   help="target FPR for the post-training eval (toy eval sets "
                        "are too small for the production 1e-5)")
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--bins", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("grad-check", help="verify analytic gradients against finite differences")
    p.add_argument("--configs", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("convert", help="convert between .csv and .ffeb")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"fairpair: config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ValidationError) as exc:
        print(f"fairpair: input error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"fairpair: i/o error: {exc}", file=sys.stderr)
        return 3
    except (DegenerateDataError, PairingError) as exc:
        print(f"fairpair: degenerate data: {exc}", file=sys.stderr)
        return 4
    except DivergenceError as exc:
        print(f"fairpair: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
