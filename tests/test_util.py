import os

import pytest

from fairpair.errors import ConfigError
from fairpair.util import kv_get, parse_kv, replaced


def test_parse_kv_basics():
    kv = parse_kv("""
    # comment
    a = 1
    name = hello world
    flag=true
    """)
    assert kv == {"a": "1", "name": "hello world", "flag": "true"}


def test_parse_kv_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_kv("a = 1\n\nbroken line\n")


def test_parse_kv_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv("a = 1\na = 2\n")


def test_kv_get_casts():
    kv = {"n": "3", "x": "2.5", "on": "yes", "off": "0"}
    assert kv_get(kv, "n", int) == 3
    assert kv_get(kv, "x", float) == 2.5
    assert kv_get(kv, "on", bool) is True
    assert kv_get(kv, "off", bool) is False


def test_kv_get_defaults_and_required():
    assert kv_get({}, "missing", int, default=7) == 7
    assert kv_get({}, "missing", str, default=None) is None
    with pytest.raises(ConfigError, match="missing"):
        kv_get({}, "missing", int)


def test_kv_get_bad_value():
    with pytest.raises(ConfigError, match="n"):
        kv_get({"n": "abc"}, "n", int)
    with pytest.raises(ConfigError):
        kv_get({"b": "maybe"}, "b", bool)


def test_replaced_names_the_path_whose_directory_is_missing(tmp_path):
    # the error names the path asked for, not a hidden temporary beside it,
    # and nothing is made: neither a temporary nor the file in the directory
    # that does exist
    kept, lost = tmp_path / "a.csv", tmp_path / "nodir" / "b.csv"
    with pytest.raises(FileNotFoundError) as info:
        with replaced([kept, lost]):
            pytest.fail("the block ran")
    assert info.value.filename == str(lost)
    assert str(lost) in str(info.value) and ".tmp" not in str(info.value)
    assert os.listdir(tmp_path) == []
