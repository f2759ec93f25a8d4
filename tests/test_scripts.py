"""Smoke tests of the experiment scripts under scripts/, run in-process."""

import csv
import importlib.util
import math
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_concentration_sweep_clamps_k(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # 2 x 8 identities leave at most 15 neighbours for the default K of 20
    code = _script("run_concentration_sweep").main(
        ["--identities", "8", "--images", "4", "--dim", "16", "--kappas", "2,18",
         "--out", str(out)])
    assert code == 0
    assert "K clamped from 20 to 15" in capsys.readouterr().err
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["kappa", "threshold", "s_inter_swept", "s_inter_fixed",
                       "afpr_swept", "afpr_fixed"]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)


def test_bias_comparison_smoke(tmp_path, capsys):
    # --epochs 1 trains under the auto decay schedule scaled to one epoch
    code = _script("run_bias_comparison").main(
        ["--seeds", "1", "--epochs", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "compare.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["mode", "seed", "iterations", "final_loss", "tail_mean_abs_eps",
                       "ifpr_std", "afpr_std"]
    assert [row[0] for row in rows[1:]] == ["mixfair", "cosface"]
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row[1:])
    for mode in ("mixfair", "cosface"):
        assert (tmp_path / f"{mode}_seed1" / "report.json").exists()
