"""Minimal key-value configuration format with TOML-style grammar.

Supported syntax, parsed natively (no tomllib dependency, the package
supports Python 3.10)::

    # comment
    [section]
    int_key = 3
    float_key = 3e-4
    bool_key = true
    string_key = "hello"
    list_key = [1, 2, 3]

Values keep their parsed Python types. ``format_config`` emits the same
grammar, so resolved configurations echo back losslessly.
"""
from __future__ import annotations

from .errors import ConfigError

ConfigTree = dict[str, dict[str, object]]


def _parse_scalar(tok: str, where: str):
    tok = tok.strip()
    if tok == "true":
        return True
    if tok == "false":
        return False
    if len(tok) >= 2 and tok[0] == '"' and tok[-1] == '"':
        return tok[1:-1]
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value '{tok}' "
                          "(strings need double quotes)")


def _split_list(body: str, where: str) -> list[str]:
    items, depth, cur = [], 0, []
    in_str = False
    for ch in body:
        if ch == '"':
            in_str = not in_str
            cur.append(ch)
        elif ch == "," and not in_str:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if in_str:
        raise ConfigError(f"{where}: unterminated string in list")
    if cur and "".join(cur).strip():
        items.append("".join(cur))
    return [i for i in items if i.strip()]


def parse_config(text: str, source: str = "<config>") -> ConfigTree:
    tree: ConfigTree = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"{where}: malformed section header '{line}'")
            section = line[1:-1].strip()
            tree.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{where}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{where}: expected 'key = value'")
        if value.startswith("["):
            if not value.endswith("]"):
                raise ConfigError(f"{where}: unterminated list")
            items = _split_list(value[1:-1], where)
            tree[section][key] = [_parse_scalar(i, where) for i in items]
        else:
            tree[section][key] = _parse_scalar(value, where)
    return tree


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_config(tree: ConfigTree) -> str:
    lines = []
    for section, kv in tree.items():
        lines.append(f"[{section}]")
        for key, value in kv.items():
            if isinstance(value, (list, tuple)):
                body = ", ".join(_format_scalar(v) for v in value)
                lines.append(f"{key} = [{body}]")
            else:
                lines.append(f"{key} = {_format_scalar(value)}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str) -> ConfigTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=path)


def _typed(value, default, where: str):
    """``value`` with the type of ``default``; an int also passes for (and
    becomes) a float, and list items go by the default list's items."""
    if isinstance(default, float) and type(value) is int:
        return float(value)
    if isinstance(default, list) and isinstance(value, list) and default:
        return [_typed(v, default[0], where) for v in value]
    if type(value) is not type(default):
        raise ConfigError(f"config {where} = {value!r} does not have the "
                          f"type of its default {default!r}")
    return value


def merge_tree(base: ConfigTree, override: ConfigTree) -> ConfigTree:
    """Overlay ``override`` onto ``base``, typed as in ``base``."""
    out = {s: dict(kv) for s, kv in base.items()}
    for section, kv in override.items():
        if section not in out:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in kv.items():
            if key not in out[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            out[section][key] = _typed(value, out[section][key],
                                       f"{section}.{key}")
    return out
