"""Deterministic JSON serialization with 17-significant-digit floats.

The standard library encoder prints shortest-repr floats; reports want a
fixed 17g format so identical runs are byte-identical and every float64
round-trips exactly.
"""

import json
import math

import numpy as np


_FLOAT_SPEC = "%.17g"


def format_float(x):
    """x at 17 significant digits, which round-trips every float64."""
    return _FLOAT_SPEC % float(x)


# Rows formatted per write.  Each block becomes one string and one tuple of
# values; at 128 rows of three floats they stay near 10 KB, under glibc's
# mmap threshold, so blocks reuse heap memory.  4,096-row blocks (250 KB+)
# raised shape-export peak RSS with every pass.
_BLOCK_ROWS = 128


def write_rows(fh, rows, sep, prefix=""):
    """Write each row of a 2-d array as one LF line: prefix + sep-joined values.

    Integer arrays are written with %d, float arrays at 17 significant
    digits, as format_float writes them.  One block of rows is one %
    operation on a line template repeated per row, and one write.
    """
    spec = "%d" if np.issubdtype(rows.dtype, np.integer) else _FLOAT_SPEC
    line = prefix + sep.join([spec] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


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

