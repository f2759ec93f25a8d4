import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairpair.train as train_module
from fairpair.errors import ConfigError, DivergenceError, PairingError
from fairpair.synth import gen_training_set, seeded_rng, standard_biased_profile, zero_bias_profile
from fairpair.train import (
    BASE_DECAY_EPOCHS,
    BiasTrace,
    TrainConfig,
    encode_dataset,
    load_trace,
    pair_samples,
    parse_train_config,
    save_trace,
    scaled_decay_epochs,
    train,
)

from conftest import failing_open


def tiny_task(seed=0, n_per=6, n_id=5, d_in=6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_id, d_in))
    x = np.repeat(centers, n_per, axis=0) + 0.1 * rng.normal(size=(n_id * n_per, d_in))
    y = np.repeat(np.arange(n_id), n_per)
    return x, y


def small_cfg(**kw):
    base = dict(d_in=6, d_k=5, d_f=4, epochs=2, batch_size=10, lr=0.05, seed=3)
    base.update(kw)
    return TrainConfig(**base)


# --- schedule -------------------------------------------------------------------

def test_decay_schedule_identity_at_base():
    assert scaled_decay_epochs(40) == BASE_DECAY_EPOCHS


def test_decay_schedule_scales():
    assert scaled_decay_epochs(20) == (4, 9, 15, 17)
    short = scaled_decay_epochs(4)
    assert all(1 <= e < 4 for e in short)
    assert short == tuple(sorted(set(short)))


def test_learning_rate_steps():
    cfg = small_cfg(epochs=40, lr=1.0, decay_epochs=(2, 5), decay_factor=0.1)
    assert cfg.learning_rate(0) == 1.0
    assert cfg.learning_rate(1) == 1.0
    assert cfg.learning_rate(2) == pytest.approx(0.1)
    assert cfg.learning_rate(4) == pytest.approx(0.1)
    assert cfg.learning_rate(5) == pytest.approx(0.01)


# --- pairing ---------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 40))
def test_pair_samples_never_same_identity(seed, n):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, max(2, n // 3), size=n)
    y[0], y[1] = 0, 1  # at least two identities
    partners = pair_samples(y, np.random.default_rng(seed + 1))
    assert np.all(y[partners] != y)
    assert np.all(partners != np.arange(n))


def test_pair_samples_single_identity_rejected():
    with pytest.raises(PairingError):
        pair_samples(np.zeros(5, dtype=int), np.random.default_rng(0))


def test_batches_need_two_identities():
    x, y = tiny_task(n_per=8, n_id=2)
    # batch size 4 can produce single-identity batches only if the shuffle is
    # unlucky 100 times in a row; the loop must instead find a valid split
    cfg = small_cfg(epochs=1, batch_size=4)
    params, trace = train(cfg, x, y)
    assert trace.iterations == len(y) // 4


# --- the loop ----------------------------------------------------------------------

def test_zero_lr_keeps_parameters(rng):
    x, y = tiny_task()
    cfg = small_cfg(lr=0.0, weight_decay=0.0, epochs=1)
    from fairpair.model import xavier_init
    from fairpair.train import _STREAM_INIT
    want = xavier_init(cfg.d_in, cfg.d_k, cfg.d_f, 5, seeded_rng(cfg.seed, _STREAM_INIT),
                       scale=cfg.scale, margin=cfg.margin)
    params, _ = train(cfg, x, y)
    np.testing.assert_array_equal(params.w_enc, want.w_enc)
    np.testing.assert_array_equal(params.w_deb, want.w_deb)
    np.testing.assert_array_equal(params.prototypes, want.prototypes)


def test_training_is_deterministic():
    x, y = tiny_task()
    cfg = small_cfg(epochs=3)
    p1, t1 = train(cfg, x, y)
    p2, t2 = train(cfg, x, y)
    assert p1.w_enc.tobytes() == p2.w_enc.tobytes()
    assert p1.prototypes.tobytes() == p2.prototypes.tobytes()
    assert np.array_equal(t1.mean_abs_eps, t2.mean_abs_eps)
    assert np.array_equal(t1.loss, t2.loss)


def test_seed_changes_trajectory():
    x, y = tiny_task()
    p1, _ = train(small_cfg(seed=1), x, y)
    p2, _ = train(small_cfg(seed=2), x, y)
    assert p1.w_enc.tobytes() != p2.w_enc.tobytes()


def test_cosface_mode_ignores_eps_in_loss():
    x, y = tiny_task()
    _, t_cos = train(small_cfg(mode="cosface", epochs=1), x, y)
    _, t_mix = train(small_cfg(mode="mixfair", epochs=1), x, y)
    # the trace still measures the bias signal in both modes
    assert np.all(np.isfinite(t_cos.mean_abs_eps))
    assert t_cos.iterations == t_mix.iterations
    # first iteration starts from the same init, so the measured eps agrees
    assert t_cos.mean_abs_eps[0] == t_mix.mean_abs_eps[0]
    assert t_cos.loss[0] != t_mix.loss[0]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_detected():
    # inputs at the float64 ceiling overflow the first matmul; the mixed-sign
    # debias weights then turn inf into nan and the loop must stop
    x, y = tiny_task()
    x = np.where(x > 0, 1e308, -1e308)
    with pytest.raises(DivergenceError):
        train(small_cfg(epochs=1, encoder_act="identity"), x, y)


def test_loss_decreases_on_easy_task():
    x, y = tiny_task(n_per=10)
    cfg = small_cfg(epochs=12, lr=0.05, batch_size=25)
    _, trace = train(cfg, x, y)
    head = trace.loss[:5].mean()
    tail = trace.loss[-5:].mean()
    assert tail < 0.5 * head


def test_label_validation():
    x, y = tiny_task()
    with pytest.raises(ConfigError):
        train(small_cfg(d_in=99), x, y)
    bad = y.copy()
    bad[0] = -1
    with pytest.raises(Exception):
        train(small_cfg(), x, bad)


# --- trace ------------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    trace = BiasTrace(mean_abs_eps=np.array([0.5, 0.25, 0.1]),
                      loss=np.array([2.0, 1.0, 0.5]))
    p = tmp_path / "trace.csv"
    save_trace(p, trace)
    back = load_trace(p)
    np.testing.assert_allclose(back.mean_abs_eps, trace.mean_abs_eps, rtol=1e-8)
    np.testing.assert_allclose(back.loss, trace.loss, rtol=1e-8)
    assert p.read_text().splitlines()[0] == "iteration,mean_abs_eps,loss"


def test_failed_trace_save_keeps_old_file(tmp_path, monkeypatch):
    p = tmp_path / "trace.csv"
    save_trace(p, BiasTrace(mean_abs_eps=np.array([0.5]), loss=np.array([2.0])))
    before = p.read_bytes()
    longer = BiasTrace(mean_abs_eps=np.array([0.4, 0.25, 0.1]), loss=np.array([3.0, 1.0, 0.5]))
    with monkeypatch.context() as mp:
        mp.setattr(train_module, "open", failing_open(2), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_trace(p, longer)
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["trace.csv"]


def test_trace_tail_mean():
    trace = BiasTrace(mean_abs_eps=np.arange(10, dtype=float), loss=np.zeros(10))
    assert trace.tail_mean_abs_eps(4) == pytest.approx(np.mean([6, 7, 8, 9]))
    assert trace.tail_mean_abs_eps(100) == pytest.approx(np.mean(np.arange(10)))


# --- config parsing ------------------------------------------------------------------

def test_parse_train_config():
    cfg = parse_train_config("""
    # toy run
    d_in = 8
    d_k = 6
    epochs = 5
    mode = cosface
    detach_eps = true
    decay_epochs = 2, 4
    """)
    assert cfg.d_in == 8 and cfg.d_k == 6 and cfg.epochs == 5
    assert cfg.mode == "cosface" and cfg.detach_eps is True
    assert cfg.decay_epochs == (2, 4)


def test_parse_train_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="nope"):
        parse_train_config("d_in = 4\nnope = 3\n")


def test_parse_train_config_rejects_bad_decay_list():
    with pytest.raises(ConfigError, match="decay_epochs"):
        parse_train_config("d_in = 4\ndecay_epochs = 8, x\n")


def test_parse_train_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        parse_train_config("d_in = 4\nmode = fancy\n")


# --- encoding back to an embedding set ------------------------------------------------

def test_encode_dataset_unit_rows():
    x, y = tiny_task()
    cfg = small_cfg(epochs=1)
    params, _ = train(cfg, x, y)
    attr = (y % 2).astype(np.int64)
    ds = encode_dataset(params, x, y, attr)
    assert ds.n == len(y) and ds.dim == cfg.d_f
    norms = np.linalg.norm(ds.vectors.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)
    assert np.array_equal(ds.identity, y)
