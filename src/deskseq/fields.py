"""One rule for the value a config field may hold, by the kind its annotation
names: `int` (not a bool), `float` (a finite int or float, not a bool), `str`,
`list[int]` or `list[str]` (a list or a tuple).  A refused value raises one
message form: "d_model must be an int >= 1, got 2.0"."""

from __future__ import annotations

import math
from dataclasses import fields

_KINDS = {"int": (int, "an int", "ints"), "str": (str, "a string", "strings"),
          "float": ((int, float), "a finite number", "finite numbers")}


class ConfigError(ValueError):
    """A config fault, raised by the code that finds it: the CLI exits 2 on it."""


def check(name, value, kind, least=None, choices=None):
    """Raise a ConfigError naming `name` unless `value` is of `kind` and, each
    element of a list kind alike, at least `least` and one of `choices`."""
    each = kind[5:-1] if kind.startswith("list[") else None
    types = _KINDS[each or kind][0]
    if (each and not isinstance(value, (list, tuple))) or not all(
            isinstance(v, types) and not isinstance(v, bool)
            and (not isinstance(v, float) or math.isfinite(v))
            and (least is None or v >= least) and (choices is None or v in choices)
            for v in (value if each else [value])):
        what = f"a list of {_KINDS[each][2]}" if each else _KINDS[kind][1]
        bound = f" in {choices}" if choices else "" if least is None else f" >= {least}"
        raise ConfigError(f"{name} must be {what}{bound}, got {value!r}")


def check_fields(obj, least, choices):
    """`check` each field of dataclass `obj` whose annotation names a kind (a
    string, by `from __future__ import annotations`), by `least` and `choices`."""
    for f in fields(obj):
        if f.type.removeprefix("list[").removesuffix("]") in _KINDS:
            check(f.name, getattr(obj, f.name), f.type, least.get(f.name), choices.get(f.name))
