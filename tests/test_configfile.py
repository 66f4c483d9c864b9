import numpy as np
import pytest

from fanav.cli import DEFAULT_CONFIG
from fanav.errors import ConfigError
from fanav.configfile import Settings, format_config, merge_tree, parse_config


def test_parse_types():
    tree = parse_config("""
# a comment
[alpha]
count = 3
rate = 3e-4
flag = true
other = false
name = "hello world"
items = [1, 2.5, "x"]
""")
    a = tree["alpha"]
    assert a["count"] == 3 and isinstance(a["count"], int)
    assert a["rate"] == pytest.approx(3e-4)
    assert a["flag"] is True and a["other"] is False
    assert a["name"] == "hello world"
    assert a["items"] == [1, 2.5, "x"]


def test_parse_inline_comments_and_hash_in_string():
    tree = parse_config('[s]\nk = 5 # five\nname = "a#b"\n')
    assert tree["s"]["k"] == 5
    assert tree["s"]["name"] == "a#b"


def test_parse_literal_strings_multiline_arrays_and_hex():
    tree = parse_config("[s]\npath = 'C:\\data'\nl = [\n  1,\n  2,\n]\n"
                        "h = 0x10\n")
    assert tree["s"] == {"path": "C:\\data", "l": [1, 2], "h": 16}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="c.toml: Expected '=' .* line 2,"):
        parse_config("[s]\nk 5\n", source="c.toml")
    # TOML allows a key before any section, and such a key is refused;
    # tomllib gives no position, and the key is unique there
    with pytest.raises(ConfigError, match="c.toml: key 'k' outside"):
        parse_config("k = 5\n[s]\nj = 1\n", source="c.toml")
    with pytest.raises(ConfigError, match="c.toml: Invalid value .* line 2,"):
        parse_config("[s]\nk = bare_string\n", source="c.toml")
    with pytest.raises(ConfigError, match="c.toml: Unclosed array .* line 3,"):
        parse_config("[s]\nk = [1, 2\nj = 3\n", source="c.toml")
    with pytest.raises(ConfigError, match="c.toml: Expected ']' .* line 1,"):
        parse_config("[s\nk = 1\n", source="c.toml")
    for number in (".5", "3.", "007"):
        with pytest.raises(ConfigError, match="c.toml: .* line 2,"):
            parse_config(f"[s]\nk = {number}\n", source="c.toml")


def test_format_roundtrip():
    tree = {"a": {"x": 1, "y": 2.5, "z": "s", "w": True,
                  "l": [1, 2, 3], "e": 3e-4},
            "b": {"q": False}}
    text = format_config(tree)
    again = parse_config(text)
    assert again == {"a": {**tree["a"], "l": [1, 2, 3]}, "b": {"q": False}}
    # stable under a second round trip
    assert format_config(again) == text


def test_echo_reads_back_to_its_tree():
    tree = {**DEFAULT_CONFIG,
            "text": {"quote": 'a"b#c', "backslash": "C:\\data\\",
                     "tab": "a\tb", "letter": "café",
                     "control": "a\nb\x00\x7f", "list": ['"x"', "y\\", "#"]}}
    assert parse_config(format_config(tree)) == tree


def test_merge_tree_strict():
    base = {"a": {"x": 1, "y": 2}}
    out = merge_tree(base, {"a": {"x": 5}})
    assert out["a"] == {"x": 5, "y": 2}
    assert base["a"]["x"] == 1  # base untouched
    with pytest.raises(ConfigError, match="unknown config key"):
        merge_tree(base, {"a": {"zz": 1}})
    with pytest.raises(ConfigError, match="unknown config section"):
        merge_tree(base, {"nope": {"x": 1}})


class Sample(Settings, section="a"):
    f: float = 1.5
    i: int = 2
    b: bool = True
    l: tuple[int, ...] = (1, 2)
    s: str = "x"


def test_merge_tree_types_nothing():
    out = merge_tree({"a": {"f": 1.5}}, {"a": {"f": "text"}})
    assert out["a"]["f"] == "text"


def test_a_section_types_its_values_by_their_defaults():
    out = Sample.from_dict({"f": 3, "l": [4]})
    assert out.f == 3.0 and isinstance(out.f, float)
    assert out.l == (4,)
    # numpy's float64 is a float; it is stored as Python's own
    assert type(Sample(f=np.float64(2.5)).f) is float
    for key, value in (("i", True), ("i", 2.5), ("i", 2.0), ("f", False),
                       ("b", 1), ("l", 3), ("l", [1, "x"]), ("s", ["x"]),
                       ("i", np.int64(2))):
        with pytest.raises(ConfigError, match=f"config a.{key} = "):
            Sample.from_dict({key: value})
