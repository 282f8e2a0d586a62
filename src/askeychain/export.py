"""CSV and JSON emission with exact double round-trip.

The writers take what the commands build: numeric arrays and JSON-native
values.  CSV is a matrix, or a header over (index, float) rows; a JSON
envelope writes its top-level array fields as their ``tolist``.  Both
formats pin the double bit pattern.  CSV floats are printed in one
format, ``FLOAT_FORMAT`` (17 significant digits); JSON uses Python's
shortest round-trip repr, with the bytes of ``json.dumps(payload,
indent=1)``.  Each matrix or table row becomes one C-level string
operation, and the text is joined once from its rows, so building it
holds about twice the output text.  Files are written atomically (temp
file in the target directory, then rename) and get the mode a plain
write would give under the process umask.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterable

import numpy as np

FLOAT_FORMAT = "%.17g"


def atomic_write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(4).hex()}.tmp")
    # O_EXCL never reuses an existing file; 0o666 leaves the mode to the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_csv(matrix: np.ndarray) -> str:
    rows = np.atleast_2d(matrix)
    line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\n"
    # a matrix without rows is one empty line
    return "".join([line % tuple(row.tolist()) for row in rows]) or "\n"


def rows_csv(header: tuple[str, ...], rows: Iterable[tuple[int, float]]) -> str:
    line = "%d," + FLOAT_FORMAT + "\n"
    return ",".join(header) + "\n" + "".join([line % (n, v) for n, v in rows])


def _array_json(a: np.ndarray, depth: int, parts: list[str]) -> None:
    """Append ``json.dumps(a.tolist(), indent=1)`` as it reads at nesting
    ``depth``: one join per 1-D row, its items on lines of ``depth + 1``
    spaces."""
    if len(a) == 0:
        parts.append("[]")
        return
    pad = "\n" + " " * (depth + 1)
    if a.ndim == 1:
        # repr is json's float text; NaN, infinities, ints and bools take json's own
        finite = a.dtype.kind == "f" and np.isfinite(a).all()
        items = map(float.__repr__ if finite else json.dumps, a.tolist())
        parts += ("[", pad, ("," + pad).join(items), pad[:-1], "]")
        return
    parts += ("[", pad)
    for i, row in enumerate(a):
        if i:
            parts += (",", pad)
        _array_json(row, depth + 1, parts)
    parts += (pad[:-1], "]")


def envelope_json(payload: dict) -> str:
    """``json.dumps(payload, indent=1) + "\\n"`` for a payload keyed by str,
    with each top-level array field written as its ``tolist``."""
    parts: list[str] = []
    for key, value in payload.items():
        parts += (",\n " if parts else "{\n ", json.dumps(key), ": ")
        if isinstance(value, np.ndarray):
            _array_json(value, 1, parts)
        else:
            parts.append(json.dumps(value, indent=1).replace("\n", "\n "))
    parts.append("\n}\n" if parts else "{}\n")
    return "".join(parts)
