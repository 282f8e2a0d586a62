"""CSV and JSON emission with exact double round-trip.

CSV floats are printed with 17 significant digits, which pins the double
bit pattern; JSON uses Python's shortest round-trip repr.  Files are
written atomically (temp file in the target directory, then rename) and
get the mode a plain write would give under the process umask.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterable

import numpy as np


def format_float(v: float) -> str:
    return f"{v:.17g}"


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
    lines = [",".join(format_float(v) for v in row) for row in np.atleast_2d(matrix)]
    return "\n".join(lines) + "\n"


def rows_csv(header: tuple[str, ...], rows: Iterable[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def envelope_json(payload: dict) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"cannot serialize {type(o)}")

    return json.dumps(payload, default=default, indent=1) + "\n"

