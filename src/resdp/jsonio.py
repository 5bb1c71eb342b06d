"""Deterministic JSON serialization with 17-significant-digit floats.

The standard library encoder prints shortest-repr floats; reports want a
fixed 17g format so identical runs are byte-identical and every float64
round-trips exactly.
"""

import json
import math

import numpy as np


def format_float(x):
    """x at 17 significant digits, which round-trips every float64."""
    return format(float(x), ".17g")


# Rows turned into Python lists at a time, so a file never exists as one
# list or one string in memory.
_BLOCK_ROWS = 4096


def write_rows(fh, rows, sep, prefix="", fmt=format_float):
    """Write each row of a 2-d array as one LF line: prefix + sep.join(fmt(value))."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        fh.writelines(prefix + sep.join(map(fmt, row)) + "\n"
                      for row in rows[start:start + _BLOCK_ROWS].tolist())


def dumps(obj, indent=0):
    """Serialize dicts/lists/scalars; floats at 17 significant digits."""
    pieces = []
    _write(obj, pieces, indent, 0)
    return "".join(pieces)


def _write(obj, out, indent, level):
    pad = " " * (indent * (level + 1)) if indent else ""
    close_pad = " " * (indent * level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl if indent else ", "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + nl)
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad + json.dumps(key) + ": ")
            _write(value, out, indent, level + 1)
            out.append(sep if i + 1 < len(obj) else nl)
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[" + nl)
        for i, value in enumerate(items):
            out.append(pad)
            _write(value, out, indent, level + 1)
            out.append(sep if i + 1 < len(items) else nl)
        out.append(close_pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj}")
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text):
    return json.loads(text)
