import pytest

from fanav.errors import ConfigError
from fanav.configfile import format_config, merge_tree, parse_config


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


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":2:"):
        parse_config("[s]\nk 5\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config("k = 5\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("[s]\nk = bare_string\n")
    with pytest.raises(ConfigError, match="unterminated list"):
        parse_config("[s]\nk = [1, 2\n")
    with pytest.raises(ConfigError, match="malformed section"):
        parse_config("[s\nk = 1\n")


def test_format_roundtrip():
    tree = {"a": {"x": 1, "y": 2.5, "z": "s", "w": True,
                  "l": [1, 2, 3], "e": 3e-4},
            "b": {"q": False}}
    text = format_config(tree)
    again = parse_config(text)
    assert again == {"a": {**tree["a"], "l": [1, 2, 3]}, "b": {"q": False}}
    # stable under a second round trip
    assert format_config(again) == text


def test_merge_tree_strict():
    base = {"a": {"x": 1, "y": 2}}
    out = merge_tree(base, {"a": {"x": 5}})
    assert out["a"] == {"x": 5, "y": 2}
    assert base["a"]["x"] == 1  # base untouched
    with pytest.raises(ConfigError, match="unknown config key"):
        merge_tree(base, {"a": {"zz": 1}})
    with pytest.raises(ConfigError, match="unknown config section"):
        merge_tree(base, {"nope": {"x": 1}})


def test_merge_tree_checks_types_against_the_base():
    base = {"a": {"f": 1.5, "i": 2, "b": True, "l": [1, 2], "s": "x"}}
    out = merge_tree(base, {"a": {"f": 3, "l": [4]}})
    assert out["a"]["f"] == 3.0 and isinstance(out["a"]["f"], float)
    for key, value in (("i", True), ("i", 2.5), ("f", False), ("b", 1),
                       ("l", 3), ("l", [1, "x"]), ("s", ["x"])):
        with pytest.raises(ConfigError, match=f"config a.{key} = "):
            merge_tree(base, {"a": {key: value}})
