"""Matrix and report file I/O.

Matrix files are JSON objects {"rows", "cols", "re", "im"} with row-major
entry arrays; floats are written with Python's shortest round-trip decimal
form, which is lossless for 64-bit values.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MatrixFileError

MATRIX_KEYS = ("rows", "cols", "re", "im")


def matrix_to_dict(M) -> dict:
    A = np.asarray(M, dtype=complex)
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "re": A.real.ravel().tolist(),
        "im": A.imag.ravel().tolist(),
    }


def matrix_from_dict(obj: dict, source: str = "<dict>") -> np.ndarray:
    for key in MATRIX_KEYS:
        if key not in obj:
            raise MatrixFileError(f"{source}: missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not all(type(d) is int and d > 0 for d in (rows, cols)):
        raise MatrixFileError(f"{source}: rows/cols must be positive integers")
    for part in ("re", "im"):
        vals = obj[part]
        if not isinstance(vals, list):
            raise MatrixFileError(f"{source}: {part} must be a list, got {type(vals).__name__}")
        if len(vals) != rows * cols:
            raise MatrixFileError(
                f"{source}: {part} has {len(vals)} entries, expected {rows * cols}"
            )
        for i, v in enumerate(vals):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v != v:
                raise MatrixFileError(f"{source}: non-numeric token in {part!r} at index {i}")
    try:
        re = np.array(obj["re"], dtype=float).reshape(rows, cols)
        im = np.array(obj["im"], dtype=float).reshape(rows, cols)
    except OverflowError:
        raise MatrixFileError(f"{source}: entry out of float range") from None
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise MatrixFileError(f"{source}: non-finite entry")
    return re + 1j * im


def write_matrix(path, M) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(M), sort_keys=True) + "\n")


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise MatrixFileError(f"{path}: expected a JSON object")
    return matrix_from_dict(obj, source=str(path))


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
