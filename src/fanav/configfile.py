"""Text files (configs, ``--set`` pairs, worlds, suites): TOML via ``tomllib``.

Every key belongs to a ``[section]``::

    # comment
    [section]
    int_key = 3
    float_key = 3e-4
    bool_key = true
    string_key = "hello"
    list_key = [1, 2, 3]

A repeated key or section is an error, as TOML requires. Values keep
their parsed Python types. ``format_config`` writes the same grammar, so
a resolved configuration echoes back to its tree.

Each section is a frozen :class:`Settings` dataclass, which checks its own
types and bounds wherever its values come from; a setting declares its
bounds, or the values it must be among, beside its default (:func:`setting`).
World and suite files type their values by the same rule (:func:`_typed`).
"""
from __future__ import annotations

import math
import operator
import tomllib
from dataclasses import asdict, dataclass, field, fields
from typing import dataclass_transform

from .errors import ConfigError

ConfigTree = dict[str, dict[str, object]]

# what a TOML basic string must escape: the quote, the backslash and the
# control characters
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\",
            **{c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)}}


def parse_config(text: str, source: str = "<config>", hint: str = "",
                 error: type[Exception] = ConfigError) -> ConfigTree:
    """The sections of TOML ``text``. A TOML error, whose message gives
    the line, an integer too long for Python to read, or a key outside any
    section is an ``error`` that names ``source`` and ends in ``hint``."""
    try:
        tree = tomllib.loads(text)
    except ValueError as exc:  # TOMLDecodeError is one
        raise error(f"{source}: {exc}{hint}") from None
    for key, value in tree.items():
        if not isinstance(value, dict):
            raise error(f"{source}: key '{key}' outside of any "
                        f"[section]{hint}")
    return tree


def format_value(v) -> str:
    """``v`` as TOML; a list of lists gets a line per item."""
    if isinstance(v, list | tuple):
        if any(isinstance(x, list | tuple) for x in v):
            rows = (f"    {format_value(x)},\n" for x in v)
            return "[\n" + "".join(rows) + "]"
        return f"[{', '.join(map(format_value, v))}]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v.translate(_ESCAPES)}"'
    return str(v)


def format_config(tree: ConfigTree) -> str:
    lines = []
    for section, kv in tree.items():
        lines.append(f"[{section}]")
        for key, value in kv.items():
            lines.append(f"{key} = {format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str) -> ConfigTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=path)


def merge_tree(base: ConfigTree, override: ConfigTree) -> ConfigTree:
    """Overlay ``override`` onto ``base``, naming only ``base``'s keys."""
    out = {s: dict(kv) for s, kv in base.items()}
    for section, kv in override.items():
        if section not in out:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in kv.items():
            if key not in out[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            out[section][key] = value
    return out


def setting(default, *bounds: str, among: tuple = ()):
    """A field of a :class:`Settings` dataclass: its ``default``, the
    comparisons its value (each item of a tuple) must pass, such as ``"> 0"``
    and ``"<= 1"``, and the values it must be ``among``, if any."""
    return field(default=default, metadata={"bounds": bounds, "among": among})


_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
                "<=": operator.le}


def _typed(value, default, where: str):
    """``value`` with ``default``'s type: an int or numpy's float64 becomes a
    float, and a list's or tuple's items go by the default's first item."""
    if isinstance(default, tuple) and isinstance(value, list | tuple):
        return tuple(_typed(v, default[0], where) for v in value)
    if isinstance(default, float) and (type(value) is int
                                       or isinstance(value, float)):
        try:
            return float(value)
        except OverflowError:  # an int past the largest float
            raise ConfigError(f"{where} must fit a float, got an int "
                              "beyond 1.8e308") from None
    if type(value) is not type(default):
        raise ConfigError(f"config {where} = {value!r} does not have the "
                          f"type of its default {default!r}")
    return value


def typed_section(tree: ConfigTree, section: str, **types) -> dict:
    """``tree``'s ``[section]``: exactly the keys of ``types``, each value
    typed like its entry there (:func:`_typed`)."""
    kv = tree[section]
    if odd := sorted(set(kv) ^ set(types)):
        raise ConfigError(f"{section}.{odd[0]} is " + (
            "missing" if odd[0] in types else "an unknown key"))
    return {k: _typed(kv[k], t, f"{section}.{k}") for k, t in types.items()}


def typed_numbers(values, n: int, where: str) -> tuple[float, ...]:
    """A list of ``n`` finite numbers, as floats (:func:`_typed`)."""
    nums = _typed(values, (0.0,), where)
    if len(nums) != n or not all(map(math.isfinite, nums)):
        raise ConfigError(f"{where} must be {n} finite numbers, got "
                          f"{values!r}")
    return nums


@dataclass_transform(frozen_default=True)
class Settings:
    """Base of the config sections: ``class RobotSpec(Settings,
    section="robot")`` is a frozen dataclass of ``[robot]``. Building one
    types each value by its default (:func:`_typed`) and refuses a value
    that fails a rule of its field, or a non-finite float, with a
    ``ConfigError`` that names ``section.key`` and the value."""

    def __init_subclass__(cls, section: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.section = section
        dataclass(frozen=True)(cls)

    def __post_init__(self):
        for f in fields(self):
            where = f"{self.section}.{f.name}"
            value = _typed(getattr(self, f.name), f.default, where)
            object.__setattr__(self, f.name, value)
            among = f.metadata.get("among")
            for item in value if isinstance(value, tuple) else (value,):
                for bound in f.metadata.get("bounds", ()):
                    op, limit = bound.split()
                    if not _COMPARISONS[op](item, float(limit)):
                        raise ConfigError(f"{where} must be {bound}, got "
                                          f"{item!r}")
                if among and item not in among:
                    raise ConfigError(f"{where} must be among {list(among)}, "
                                      f"got {item!r}")
                if isinstance(item, float) and not math.isfinite(item):
                    raise ConfigError(f"{where} must be finite, got {item!r}")

    def to_dict(self) -> dict:
        """The values as a config tree holds them: tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "Settings":
        """The section of ``d``'s values, as :meth:`to_dict` gives them; a
        key the section lacks is a ``ConfigError`` naming ``section.key``."""
        if unknown := set(d) - {f.name for f in fields(cls)}:
            raise ConfigError("unknown config key "
                              f"{cls.section}.{min(unknown)}")
        return cls(**d)


class RunConfig(Settings, section="run"):
    """``[run]``: the seed every stage derives its random streams from."""

    seed: int = setting(0, ">= 0")
