import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairpair import cli, model
from fairpair.cli import main
from fairpair.store import EmbeddingSet, LabelTable, load_dataset, save_dataset
from fairpair.synth import (format_profile, split_by_identity, standard_biased_profile,
                            zero_bias_profile)
from fairpair.train import BASE_DECAY_EPOCHS, TrainConfig, save_trace, scaled_decay_epochs, train

from conftest import random_dataset, tile_size

PROFILE = """
dim = 16
images_per_identity = 5
groups = 2
group0.name = crowded
group0.identities = 8
group0.concentration = 20
group0.noise = 0.2
group1.name = sparse
group1.identities = 8
group1.concentration = 2
group1.noise = 0.1
"""


@pytest.fixture
def profile_path(tmp_path):
    p = tmp_path / "profile.cfg"
    p.write_text(PROFILE)
    return p


@pytest.fixture
def pop_path(tmp_path, profile_path, capsys):
    out = tmp_path / "pop.ffeb"
    assert main(["synth", "--profile", str(profile_path), "--seed", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


# --- synth ---------------------------------------------------------------------

def test_synth_writes_loadable_file(pop_path):
    ds = load_dataset(pop_path)
    assert ds.n == 80 and ds.dim == 16
    assert ds.labels.attributes == ("crowded", "sparse")


def test_synth_summary_json(tmp_path, profile_path, capsys):
    out = tmp_path / "x.ffeb"
    summary = run_json(capsys, ["synth", "--profile", str(profile_path),
                                "--seed", "2", "--out", str(out)])
    assert summary["n"] == 80 and summary["d"] == 16
    assert summary["hash"] == load_dataset(out).content_hash()


def test_synth_missing_profile_exit_2(tmp_path, capsys):
    code = main(["synth", "--profile", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o.ffeb")])
    assert code == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_synth_bad_profile_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim = 16\nwhat = 1\n")
    assert main(["synth", "--profile", str(bad), "--out", str(tmp_path / "o.ffeb")]) == 2


@pytest.mark.parametrize("raw_dim", ["0", "-1"])
def test_synth_raw_dim_below_1_exit_2(tmp_path, profile_path, capsys, raw_dim):
    out = tmp_path / "o.ffeb"
    assert main(["synth", "--profile", str(profile_path), "--out", str(out),
                 "--raw-dim", raw_dim]) == 2
    assert "raw dimension must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# --- eval ----------------------------------------------------------------------

def test_eval_outputs(tmp_path, pop_path, capsys):
    out_dir = tmp_path / "rep"
    report = run_json(capsys, ["eval", "--in", str(pop_path), "--out-dir", str(out_dir),
                               "--target-fpr", "1e-2", "--k", "5", "--bins", "32"])
    assert (out_dir / "report.json").exists()
    assert (out_dir / "per_identity.csv").exists()
    assert (out_dir / "hist_intra.csv").exists()
    assert (out_dir / "hist_inter.csv").exists()
    on_disk = json.loads((out_dir / "report.json").read_text())
    assert on_disk == report
    assert report["threshold"]["target_fpr"] == 1e-2
    assert report["config"]["k"] == 5
    csv_lines = (out_dir / "per_identity.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + report["dataset"]["g"]


def test_eval_stdout_is_the_saved_report(tmp_path, pop_path, capsys, monkeypatch):
    # the report is serialized once: stdout carries report.json's bytes, through _emit
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc: emitted.append(doc) or emit(doc))
    out_dir = tmp_path / "rep"
    assert main(["eval", "--in", str(pop_path), "--out-dir", str(out_dir),
                 "--target-fpr", "1e-2", "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert len(emitted) == 1
    assert out.encode() == (out_dir / "report.json").read_bytes()


def test_eval_byte_stable(tmp_path, pop_path, capsys):
    args = ["eval", "--in", str(pop_path), "--target-fpr", "2e-2", "--k", "4"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "per_identity.csv").read_bytes() == (d2 / "per_identity.csv").read_bytes()


def test_eval_worker_env_and_flag(tmp_path, pop_path, capsys, monkeypatch):
    d1, d2, d3 = tmp_path / "w1", tmp_path / "w2", tmp_path / "w3"
    base = ["eval", "--in", str(pop_path), "--target-fpr", "1e-2"]
    assert main(base + ["--out-dir", str(d1)]) == 0
    monkeypatch.setenv("FAIRPAIR_WORKERS", "4")
    assert main(base + ["--out-dir", str(d2)]) == 0
    # a tile that no set size here divides: the schedule, not the counts, changes
    with tile_size(17):
        assert main(base + ["--out-dir", str(d3), "--workers", "2"]) == 0
    capsys.readouterr()
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "report.json").read_bytes() == (d3 / "report.json").read_bytes()


REPORT_FILES = ("report.json", "per_identity.csv", "hist_intra.csv", "hist_inter.csv")


def test_eval_failed_write_keeps_earlier_report(tmp_path, pop_path, capsys, monkeypatch):
    out_dir = tmp_path / "rep"
    base = ["eval", "--in", str(pop_path), "--out-dir", str(out_dir), "--k", "4"]
    assert main(base + ["--target-fpr", "1e-2"]) == 0
    before = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
    real = cli.write_histogram_csv
    calls = []

    def second_call_fails_halfway(path, table):
        calls.append(path)
        if len(calls) == 1:
            return real(path, table)
        with open(path, "w") as f:
            f.write("group,bin_lo,bin_hi,density\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_histogram_csv", second_call_fails_halfway)
    assert main(base + ["--target-fpr", "2e-1"]) == 3  # another report, had it been written
    assert "disk full" in capsys.readouterr().err
    assert len(calls) == 2 and all(p.parent == out_dir for p in calls)
    assert sorted(os.listdir(out_dir)) == sorted(REPORT_FILES)  # no temporary file left
    assert {name: (out_dir / name).read_bytes() for name in REPORT_FILES} == before
    monkeypatch.setattr(cli, "write_histogram_csv", real)
    assert main(base + ["--target-fpr", "2e-1"]) == 0
    assert sorted(os.listdir(out_dir)) == sorted(REPORT_FILES)
    assert (out_dir / "report.json").read_bytes() != before["report.json"]


def test_eval_degenerate_target(tmp_path, pop_path, capsys):
    report = run_json(capsys, ["eval", "--in", str(pop_path),
                               "--out-dir", str(tmp_path / "d"), "--target-fpr", "1"])
    assert report["threshold"]["degenerate"] is True
    assert report["threshold"]["value"] is None


def test_eval_missing_input_exit_3(tmp_path, capsys):
    assert main(["eval", "--in", str(tmp_path / "missing.ffeb"),
                 "--out-dir", str(tmp_path / "o")]) == 3


def test_eval_corrupt_input_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.ffeb"
    bad.write_bytes(b"not a container at all")
    assert main(["eval", "--in", str(bad), "--out-dir", str(tmp_path / "o")]) == 3


def test_eval_forged_header_exit_3(tmp_path, capsys):
    # a header claiming N = d = 2^30 must be refused by length, not read
    bad = tmp_path / "forged.ffeb"
    bad.write_bytes(b"FFEB" + np.array([1, 2**30, 2**30, 1, 1], dtype="<u4").tobytes())
    assert main(["eval", "--in", str(bad), "--out-dir", str(tmp_path / "o")]) == 3
    assert "truncated vector payload at byte 24" in capsys.readouterr().err


def test_eval_attribute_index_over_header_exit_3(tmp_path, capsys):
    ds = EmbeddingSet(vectors=np.eye(4, dtype=np.float32), identity=np.arange(4) // 2,
                      attribute=np.array([0, 0, 1, 1]), labels=LabelTable.default(2, 2))
    path = tmp_path / "bad.ffeb"
    save_dataset(path, ds)
    raw = bytearray(path.read_bytes())
    at = 24 + 4 * 4 * 4 + 4 * 4  # record 0's attribute index
    raw[at:at + 2] = (7).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    assert main(["eval", "--in", str(path), "--out-dir", str(tmp_path / "o")]) == 3
    assert f"attribute index 7 at byte {at} out of header range M=2" in capsys.readouterr().err


def test_eval_bad_fpr_exit_2(tmp_path, pop_path, capsys):
    assert main(["eval", "--in", str(pop_path), "--out-dir", str(tmp_path / "o"),
                 "--target-fpr", "0"]) == 2


def test_eval_single_identity_exit_4(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, n=6, g=1, m=1)
    p = tmp_path / "one.ffeb"
    save_dataset(p, ds)
    assert main(["eval", "--in", str(p), "--out-dir", str(tmp_path / "o")]) == 4


# --- analyze --------------------------------------------------------------------

def test_analyze_summary(tmp_path, pop_path, capsys):
    out_csv = tmp_path / "sim.csv"
    summary = run_json(capsys, ["analyze", "--in", str(pop_path), "--k", "6",
                                "--out", str(out_csv)])
    assert summary["k"] == 6
    crowded, sparse = summary["groups"]["crowded"], summary["groups"]["sparse"]
    assert crowded["identities"] == 8 and sparse["identities"] == 8
    assert crowded["mean_s_inter"] > sparse["mean_s_inter"]
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("identity,name,attribute")
    assert len(lines) == 17


def test_analyze_clamps_k_like_eval(tmp_path, pop_path, capsys):
    assert main(["analyze", "--in", str(pop_path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["k"] == 15
    assert "K clamped from 50 to 15 (only 16 identities)" in captured.err
    report = run_json(capsys, ["eval", "--in", str(pop_path), "--out-dir", str(tmp_path / "r"),
                               "--target-fpr", "1e-2"])
    assert "K clamped from 50 to 15 (only 16 identities)" in report["warnings"]


def test_analyze_single_identity_exit_4(tmp_path, capsys):
    # like eval, a set with no second identity is degenerate data, not a bad K
    ds = random_dataset(np.random.default_rng(0), n=6, g=1, m=1)
    p = tmp_path / "one.ffeb"
    save_dataset(p, ds)
    assert main(["analyze", "--in", str(p)]) == 4
    err = capsys.readouterr().err
    assert "degenerate data" in err and "K clamped" not in err


def _zero_mean_set(tmp_path):
    # identity 0 holds v and -v, so its mean vector is zero and has no cosine
    v = np.array([[1, 2, 0], [-1, -2, 0], [0, 1, 1], [1, 0, 2], [2, 1, 0], [0, 2, 1]],
                 dtype=np.float32)
    p = tmp_path / "zero_mean.ffeb"
    save_dataset(p, EmbeddingSet(vectors=v, identity=np.array([0, 0, 1, 1, 2, 2]),
                                 attribute=np.zeros(6, np.int64),
                                 labels=LabelTable.default(3, 1)))
    return p


def test_eval_zero_mean_exit_4(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["eval", "--in", str(_zero_mean_set(tmp_path)), "--out-dir", str(out),
                 "--target-fpr", "0.5"]) == 4
    captured = capsys.readouterr()
    assert "degenerate data: identity 0 has a zero mean vector" in captured.err
    assert captured.out == "" and not out.exists()


def test_analyze_zero_mean_exit_4(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["analyze", "--in", str(_zero_mean_set(tmp_path)), "--k", "1",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "degenerate data: identity 0 has a zero mean vector" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_group_without_identities(tmp_path, capsys):
    # the label table names a third attribute that no identity carries
    ds = random_dataset(np.random.default_rng(3), n=30, d=6, g=6, m=2)
    labels = LabelTable(identities=ds.labels.identities,
                        attributes=ds.labels.attributes + ("unused",))
    p = tmp_path / "empty_group.ffeb"
    save_dataset(p, EmbeddingSet(vectors=ds.vectors, identity=ds.identity,
                                 attribute=ds.attribute, labels=labels))
    code = main(["analyze", "--in", str(p), "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"unused":{"identities":0,"mean_s_inter":null,"mean_s_intra":null}' in out
    assert json.loads(out)["groups"]["attr0"]["identities"] > 0


# --- train-toy -------------------------------------------------------------------

@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy")
    profile = tmp / "p.cfg"
    profile.write_text(PROFILE.replace("dim = 16", "dim = 8"))
    data = tmp / "train.ffeb"
    code = main(["synth", "--profile", str(profile), "--seed", "4",
                 "--out", str(data), "--raw-dim", "8"])
    assert code == 0
    out_dir = tmp / "run"
    code = main(["train-toy", "--data", str(data), "--out-dir", str(out_dir),
                 "--epochs", "2", "--batch-size", "20", "--d-k", "6", "--d-f", "4",
                 "--k", "4", "--bins", "16"])
    assert code == 0
    return out_dir


def test_train_toy_artifacts(train_run):
    assert (train_run / "model.ffmp").exists()
    assert (train_run / "trace.csv").exists()
    assert (train_run / "report.json").exists()
    trace_lines = (train_run / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "iteration,mean_abs_eps,loss"
    assert len(trace_lines) > 2


def test_train_toy_model_loadable(train_run):
    from fairpair.model import load_model
    params = load_model(train_run / "model.ffmp")
    assert params.d_k == 6 and params.d_f == 4


def _toy_training_set(tmp_path):
    profile = tmp_path / "p.cfg"
    profile.write_text(PROFILE.replace("dim = 16", "dim = 8"))
    data = tmp_path / "t.ffeb"
    assert main(["synth", "--profile", str(profile), "--seed", "4",
                 "--out", str(data), "--raw-dim", "8"]) == 0
    return data


def test_train_toy_summary_fields(tmp_path, capsys):
    data = _toy_training_set(tmp_path)
    capsys.readouterr()
    summary = run_json(capsys, ["train-toy", "--data", str(data),
                                "--out-dir", str(tmp_path / "run"),
                                "--mode", "cosface", "--epochs", "1",
                                "--batch-size", "20", "--d-k", "6", "--d-f", "4",
                                "--k", "4", "--bins", "8"])
    for key in ("mode", "iterations", "final_loss", "tail_mean_abs_eps",
                "ifpr_std", "afpr_std"):
        assert key in summary, key
    assert summary["mode"] == "cosface"


@pytest.mark.parametrize("flag, value, message", [
    ("--bins", "1", "histogram bins must be at least 2"),
    ("--eval-target-fpr", "0", "target FPR must lie in (0, 1]"),
    ("--k", "0", "K must be at least 1"),
])
def test_train_toy_bad_eval_flag_exit_2_before_training(tmp_path, capsys, flag, value,
                                                        message):
    data = _toy_training_set(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train-toy", "--data", str(data), "--out-dir", str(out_dir),
                 "--epochs", "1", "--batch-size", "20", flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not (out_dir / "model.ffmp").exists()


def test_train_toy_single_image_identity_exit_4(tmp_path, capsys):
    # identity 2 has one image, which cannot go to both the train and the eval split
    ds = random_dataset(np.random.default_rng(5), n=9, d=4, g=2, m=1)
    data = tmp_path / "raw.ffeb"
    save_dataset(data, EmbeddingSet(vectors=np.vstack([ds.vectors, np.ones((1, 4))]),
                                    identity=np.append(ds.identity, 2),
                                    attribute=np.zeros(10, np.int64),
                                    labels=LabelTable.default(3, 1)))
    out_dir = tmp_path / "run"
    assert main(["train-toy", "--data", str(data), "--out-dir", str(out_dir),
                 "--epochs", "1", "--batch-size", "4"]) == 4
    captured = capsys.readouterr()
    assert "degenerate data: identity 2 has fewer than 2 images; cannot split" in captured.err
    assert captured.out == "" and not out_dir.exists()


def test_train_toy_explicit_decay_survives_epochs(tmp_path, capsys):
    # an explicit schedule equal to the 40-epoch default is kept under --epochs;
    # the auto schedule for 2 epochs would decay at epoch 1 instead
    assert scaled_decay_epochs(2) == (1,)
    data = _toy_training_set(tmp_path)
    capsys.readouterr()
    config = tmp_path / "train.cfg"
    config.write_text("decay_epochs = " + ", ".join(map(str, BASE_DECAY_EPOCHS)) + "\n")
    out_dir = tmp_path / "run"
    run_json(capsys, ["train-toy", "--data", str(data), "--out-dir", str(out_dir),
                      "--config", str(config), "--epochs", "2", "--batch-size", "20",
                      "--d-k", "6", "--d-f", "4", "--k", "4", "--bins", "8"])

    ds = load_dataset(data)
    train_idx, _ = split_by_identity(ds.identity)
    direct = TrainConfig(d_in=ds.dim, n_id=ds.n_identities, epochs=2, batch_size=20,
                         d_k=6, d_f=4, decay_epochs=BASE_DECAY_EPOCHS)
    _, trace = train(direct, ds.vectors.astype(np.float64)[train_idx], ds.identity[train_idx])
    save_trace(tmp_path / "direct.csv", trace)
    assert (out_dir / "trace.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_train_toy_mode_from_config(tmp_path, capsys):
    data = _toy_training_set(tmp_path)
    capsys.readouterr()
    config = tmp_path / "train.cfg"
    config.write_text("mode = cosface\n")
    argv = ["train-toy", "--data", str(data), "--config", str(config), "--epochs", "1",
            "--batch-size", "20", "--d-k", "6", "--d-f", "4", "--k", "4", "--bins", "8"]
    assert run_json(capsys, argv + ["--out-dir", str(tmp_path / "a")])["mode"] == "cosface"
    summary = run_json(capsys, argv + ["--out-dir", str(tmp_path / "b"), "--mode", "mixfair"])
    assert summary["mode"] == "mixfair"


@pytest.mark.parametrize("command, code", [("convert", 3), ("synth", 2), ("train-toy", 2)])
def test_text_input_not_utf8_fails_cleanly(tmp_path, capsys, command, code):
    # a 0xFF byte at offset 8 of the CSV, the profile or the training config
    bad = tmp_path / ("bad.csv" if command == "convert" else "bad.cfg")
    bad.write_bytes(b"dim = 8\n\xff = 1\n")
    if command == "convert":
        argv = ["convert", "--in", str(bad), "--out", str(tmp_path / "o.ffeb")]
    elif command == "synth":
        argv = ["synth", "--profile", str(bad), "--out", str(tmp_path / "o.ffeb")]
    else:
        argv = ["train-toy", "--data", str(_toy_training_set(tmp_path)), "--config", str(bad),
                "--out-dir", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "byte 8 is not UTF-8 text" in captured.err and captured.out == ""
    assert not (tmp_path / "o.ffeb").exists() and not (tmp_path / "run").exists()


# --- grad-check ---------------------------------------------------------------------

def test_grad_check_passes(capsys):
    assert main(["grad-check", "--configs", "4", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_grad_check_catches_negated_gradients(capsys, monkeypatch):
    backward = model.batch_backward
    monkeypatch.setattr(model, "batch_backward", lambda *args, **kw: {
        name: -g for name, g in backward(*args, **kw).items()})
    assert main(["grad-check", "--configs", "2"]) == 1


def test_grad_check_fails_on_nan_error(capsys, monkeypatch):
    # one NaN error among finite ones fails the run
    errs = iter([0.0, math.nan, 0.0])
    monkeypatch.setattr(cli, "grad_check", lambda *args, **kw: next(errs))
    assert main(["grad-check", "--configs", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and doc["max_rel_err"] is None


@pytest.mark.parametrize("flag, value, message", [
    ("--configs", "0", "--configs must be at least 1"),
    ("--configs", "-1", "--configs must be at least 1"),
    ("--step", "0", "--step must be finite and positive"),
    ("--step", "-1e-6", "--step must be finite and positive"),
    ("--step", "nan", "--step must be finite and positive"),
    ("--step", "inf", "--step must be finite and positive"),
    ("--tol", "0", "--tol must be finite and positive"),
    ("--tol", "-1", "--tol must be finite and positive"),
    ("--tol", "nan", "--tol must be finite and positive"),
    ("--tol", "inf", "--tol must be finite and positive"),
    ("--tol", "-inf", "--tol must be finite and positive"),
])
def test_grad_check_bad_flag_exit_2_before_checking(capsys, monkeypatch, flag, value, message):
    monkeypatch.setattr(cli, "grad_check", lambda *args, **kw: pytest.fail("checked a model"))
    assert main(["grad-check", f"{flag}={value}"]) == 2
    assert message in capsys.readouterr().err


def test_analyze_missing_out_directory_exit_3(tmp_path, pop_path, capsys):
    out = tmp_path / "nodir" / "sim.csv"
    assert main(["analyze", "--in", str(pop_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == ["pop.ffeb", "profile.cfg"]  # no temporary left


@pytest.mark.parametrize("command, work", [("eval", "evaluate_dataset"), ("train-toy", "train"),
                                           ("analyze", "intra_inter_similarity")])
def test_unusable_output_location_exit_3_before_the_work(tmp_path, pop_path, capsys,
                                                         monkeypatch, command, work):
    # a file where a directory must be, or a missing directory for analyze's
    # file: the run stops before loading, names the path and makes nothing
    monkeypatch.setattr(cli, work, lambda *args, **kw: pytest.fail(f"{work} ran"))
    taken = tmp_path / "taken"
    taken.write_text("")
    before = sorted(os.listdir(tmp_path))
    if command == "analyze":
        outs = [("--out", tmp_path / "nodir" / "sim.csv"), ("--out", taken / "sim.csv")]
    else:
        outs = [("--out-dir", taken), ("--out-dir", taken / "sub" / "run")]
    data = "--data" if command == "train-toy" else "--in"
    for flag, out in outs:
        assert main([command, data, str(pop_path), flag, str(out)]) == 3
        captured = capsys.readouterr()
        assert f"'{out}'" in captured.err and "i/o error" in captured.err
        assert captured.out == "" and "loaded" not in captured.err
        assert sorted(os.listdir(tmp_path)) == before


# --- convert -------------------------------------------------------------------------

def test_convert_roundtrip(tmp_path, pop_path, capsys):
    csv_path = tmp_path / "x.csv"
    back_path = tmp_path / "back.ffeb"
    assert main(["convert", "--in", str(pop_path), "--out", str(csv_path)]) == 0
    assert main(["convert", "--in", str(csv_path), "--out", str(back_path)]) == 0
    capsys.readouterr()
    a, b = load_dataset(pop_path), load_dataset(back_path)
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert [a.labels.identities[k] for k in a.identity] == \
           [b.labels.identities[k] for k in b.identity]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_convert_non_finite_component_names_the_line(tmp_path, capsys, value):
    # the third line of the file holds the non-finite component
    bad = tmp_path / "bad.csv"
    bad.write_text(f"index,identity,attribute,v0,v1\n0,a,x,1.0,2.0\n1,b,y,{value},1.0\n")
    assert main(["convert", "--in", str(bad), "--out", str(tmp_path / "o.ffeb")]) == 3
    assert "record 3: non-finite vector component" in capsys.readouterr().err
    assert not (tmp_path / "o.ffeb").exists()


@pytest.mark.parametrize("name", ["x.csv", "x.ffeb"])
def test_convert_missing_out_directory_exit_3(tmp_path, pop_path, capsys, name):
    # both directions: the .ffeb set to csv, and its csv back to .ffeb
    src = pop_path
    if name.endswith(".ffeb"):
        src = tmp_path / "pop.csv"
        assert main(["convert", "--in", str(pop_path), "--out", str(src)]) == 0
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "nodir" / name
    assert main(["convert", "--in", str(src), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == before  # no temporary left


def test_convert_unknown_extension_exit_2(tmp_path, pop_path, capsys):
    assert main(["convert", "--in", str(pop_path), "--out", str(tmp_path / "x.xyz")]) == 2


# --- process-level smoke ---------------------------------------------------------------

def test_module_entrypoint_runs(tmp_path, profile_path):
    out = tmp_path / "p.ffeb"
    # run this checkout's package, ahead of any copy already on the caller's path
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fairpair.cli", "synth", "--profile", str(profile_path),
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    # progress chatter goes to stderr, machine output to stdout
    json.loads(proc.stdout)
    assert "[fairpair]" in proc.stderr
