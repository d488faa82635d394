"""The JSON text of a ``--format json`` answer, byte for byte what
``json.dumps`` writes with its defaults: ``", "`` between items, ``": "``
after a key, and every character outside printable ASCII escaped.  Only a
JSON answer imports this module, and no subcommand imports ``json``, whose
import and encoder set-up cost each such process more than writing its
answer does."""

from __future__ import annotations

# json.dumps escapes '"', '\\' and every character outside ' '..'~': the
# five with a short escape by it, the rest as \\u and four hex digits
_ASCII = {i: f"\\u{i:04x}" for i in (*range(0x20), 0x7f)}
_ASCII.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\b"): "\\b", ord("\f"): "\\f",
               ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"})


def _escaped(c: str) -> str:
    # a character past U+FFFF as its UTF-16 surrogate pair
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"


def _string(s: str) -> str:
    s = s.translate(_ASCII)
    if not s.isascii():
        s = "".join(c if c < "\x80" else _escaped(c) for c in s)
    return f'"{s}"'


def dumps(value) -> str:
    """``json.dumps(value)`` for a value of dicts with str keys, lists, str,
    int, bool and None, all an answer holds; any other type raises
    ``TypeError``."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_string(key)}: {dumps(item)}")
        return "{" + ", ".join(items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
