"""Truncated and edited FFEB and FFMP containers.

A damaged container may still load, since an edit can leave a valid file.
Otherwise it fails with a FormatError whose message names a byte offset, or
with a ValidationError; never with another exception, and never with a
warning.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpair.cli import main
from fairpair.errors import FormatError, ValidationError
from fairpair.model import ModelParams, load_model, save_model
from fairpair.store import load_dataset, save_dataset

from conftest import random_dataset


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """format -> (loader, pristine bytes, path for damaged copies), for a small file of each."""
    root = tmp_path_factory.mktemp("fuzz")
    save_dataset(root / "set.ffeb", random_dataset(np.random.default_rng(2), n=6, d=3, g=3, m=2))
    rng = np.random.default_rng(3)
    save_model(root / "model.ffmp", ModelParams(w_enc=rng.normal(size=(3, 2)),
                                                w_deb=rng.normal(size=(2, 2)),
                                                prototypes=rng.normal(size=(3, 2))))
    return {"ffeb": (load_dataset, (root / "set.ffeb").read_bytes(), root / "damaged.ffeb"),
            "ffmp": (load_model, (root / "model.ffmp").read_bytes(), root / "damaged.ffmp")}


def load_or_reject(load, path, data: bytes):
    """Load `data` from `path`; only the documented errors, and no warning, may come out."""
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load(path)
        except FormatError as exc:
            assert re.search(r"\bbyte \d+", str(exc)), f"no byte offset in: {exc}"
        except ValidationError:
            pass


@pytest.mark.parametrize("fmt", ["ffeb", "ffmp"])
def test_every_truncation_is_rejected(files, fmt):
    load, blob, path = files[fmt]
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with warnings.catch_warnings(), pytest.raises(FormatError, match=r"\bbyte \d+"):
            warnings.simplefilter("error")
            load(path)


@pytest.mark.parametrize("fmt", ["ffeb", "ffmp"])
@settings(max_examples=300)
@given(data=st.data())
def test_edited_files_load_or_fail_cleanly(files, fmt, data):
    load, blob, path = files[fmt]
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                               min_size=1, max_size=6))
    # most examples keep the length, so the edits reach the checks behind the length check
    cut = data.draw(st.just(len(blob)) | st.integers(0, len(blob) - 1))
    tail = data.draw(st.just(b"") | st.binary(min_size=1, max_size=3))
    damaged = bytearray(blob)
    for pos, value in edits:
        damaged[pos] = value
    load_or_reject(load, path, bytes(damaged[:cut]) + tail)


@pytest.mark.parametrize("at, value", [(28, -1.0), (28, 0.0), (28, np.nan), (36, -0.5),
                                       (36, np.nan)])
def test_bad_model_scalars_are_format_errors(files, at, value):
    # the loss scale sits at byte 28 and the margin at byte 36
    _, blob, path = files["ffmp"]
    damaged = bytearray(blob)
    damaged[at:at + 8] = np.float64(value).astype("<f8").tobytes()
    path.write_bytes(bytes(damaged))
    with pytest.raises(FormatError, match=f"at byte {at} must be"):
        load_model(path)


def test_huge_prototype_loads_without_overflow_warning():
    rng = np.random.default_rng(4)
    kw = dict(w_enc=rng.normal(size=(3, 2)), w_deb=rng.normal(size=(2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams(prototypes=np.array([[1e300, 0.0], [1.0, 2.0]]), **kw)
    for dead in ([0.0, 0.0], [1e-200, 0.0]):  # a norm of 0, exact or underflowed
        with pytest.raises(ValidationError, match="nonzero"):
            ModelParams(prototypes=np.array([dead, [1.0, 2.0]]), **kw)


@pytest.mark.parametrize("damage", ["cut 0", "cut 20", "cut 60", "cut -1", "magic", "version",
                                    "zero-d", "trailing"])
def test_convert_exits_3_on_a_damaged_container(files, tmp_path, capsys, damage):
    _, blob, _ = files["ffeb"]
    kind, _, arg = damage.partition(" ")
    damaged = bytearray(blob[:int(arg)] if kind == "cut" else blob)
    if kind == "magic":
        damaged[0] ^= 0xFF
    elif kind == "version":
        damaged[4] = 9
    elif kind == "zero-d":
        damaged[12:16] = bytes(4)
    elif kind == "trailing":
        damaged += b"\0"
    src, dst = tmp_path / "in.ffeb", tmp_path / "out.csv"
    src.write_bytes(bytes(damaged))
    assert main(["convert", "--in", str(src), "--out", str(dst)]) == 3
    assert re.search(r"input error: .*\bbyte \d+", capsys.readouterr().err)
    assert not dst.exists()
