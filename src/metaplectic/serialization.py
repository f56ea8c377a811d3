"""Flat-file formats for matrices, generating functions, words, and sampled
functions.

Matrices travel as JSON ``{"n": int, "entries": [...]}`` with the 2n x 2n
entries flattened row-major.  Generating functions are JSON objects with
``P``, ``L``, ``Q`` blocks (nested rows); a *word* is a JSON list of
``{"P", "L", "Q", "m"}`` factors, leftmost factor applied last.

Sampled functions are a one-line JSON header followed by a CSV payload of
``re,im`` pairs, one grid point per line in row-major order:

    {"n": 1, "N": 512, "X": 12.0, "hbar": 1.0}
    0.0012,-0.4431
    ...

Phase-space functions use the same layout with header fields
``{n, N, X, N_p, P_max, hbar}`` and the (x, p) array flattened row-major.
All floats are written with 17 significant digits so values round-trip
exactly.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from .grids import Grid, SampledFunction
from .phase_space import PhaseFunction, PhaseGrid
from .symplectic import GeneratingFunction

__all__ = [
    "matrix_to_json", "matrix_from_json",
    "generating_to_json", "generating_from_json",
    "word_to_json", "word_from_json",
    "save_sampled", "load_sampled",
    "save_phase", "load_phase",
]


def _block(a: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def matrix_to_json(entries: np.ndarray) -> dict:
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] % 2:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {entries.shape}")
    return {"n": entries.shape[0] // 2,
            "entries": [float(v) for v in entries.ravel()]}


def _require_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


@contextlib.contextmanager
def _fields(what: str):
    """Re-raise a missing key or a field of the wrong type (``null`` where a
    number belongs, say) as ``ValueError``: bad input, not a crash."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} is missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{what} has a field of the wrong type ({exc})") from exc


def matrix_from_json(obj: dict) -> np.ndarray:
    _require_object(obj, "matrix JSON")
    with _fields("matrix JSON"):
        n = int(obj["n"])
        return np.asarray(obj["entries"], dtype=float).reshape(2 * n, 2 * n)


def generating_to_json(w: GeneratingFunction) -> dict:
    return {"n": w.n, "P": _block(w.P), "L": _block(w.L), "Q": _block(w.Q)}


def generating_from_json(obj: dict) -> GeneratingFunction:
    _require_object(obj, "generating-function JSON")
    with _fields("generating-function JSON"):
        n = int(obj.get("n", np.atleast_2d(obj["L"]).shape[0]))
        blocks = [np.asarray(obj[k], dtype=float).reshape(n, n)
                  for k in ("P", "L", "Q")]
    return GeneratingFunction(*blocks)


def word_to_json(factors) -> list:
    out = []
    for w, m in factors:
        entry = generating_to_json(w)
        entry["m"] = int(m) % 4
        out.append(entry)
    return out


def word_from_json(obj) -> list:
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise ValueError(f"word JSON must be an object or a list, got {type(obj).__name__}")
    factors = []
    for entry in obj:
        w = generating_from_json(entry)
        with _fields("word JSON"):
            factors.append((w, int(entry.get("m", 0)) % 4))
    return factors


def _save(path: str, header: dict, values: np.ndarray) -> None:
    """One-line JSON header, then one ``re,im`` row per sample: the bytes of
    ``np.savetxt(fh, rows, delimiter=",", fmt="%.17g")``, formatted by one
    ``%`` over all rows instead of one per row."""
    flat = np.asarray(values, dtype=complex).ravel()
    re_im = flat.view(float).tolist()  # ravel is contiguous: re0, im0, re1, ...
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(("%.17g,%.17g\n" * flat.size) % tuple(re_im))


def _load(path: str, what: str, make_grid) -> tuple:
    """(grid, hbar, values) from a file written by ``_save``; ``make_grid``
    builds the lattice from the header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = _require_object(json.loads(fh.readline()), f"{what} header")
        with _fields(f"{what} header"):
            grid = make_grid(header)
            hbar = float(header["hbar"])
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    count = math.prod(grid.shape())
    if data.shape != (count, 2):
        raise ValueError(f"expected {count} re,im rows, got shape {data.shape}")
    return grid, hbar, (data[:, 0] + 1j * data[:, 1]).reshape(grid.shape())


def save_sampled(path: str, f: SampledFunction) -> None:
    _save(path, {"n": f.grid.n, "N": f.grid.N, "X": float(f.grid.X),
                 "hbar": float(f.hbar)}, f.values)


def load_sampled(path: str) -> SampledFunction:
    grid, hbar, values = _load(path, "sampled-function", lambda h: Grid(
        n=int(h["n"]), N=int(h["N"]), X=float(h["X"])))
    return SampledFunction(grid, hbar, values, check_tails=False)


def save_phase(path: str, F: PhaseFunction) -> None:
    g = F.grid
    _save(path, {"n": g.n, "N": g.N, "X": float(g.X), "N_p": g.N_p,
                 "P_max": float(g.P_max), "hbar": float(F.hbar)}, F.values)


def load_phase(path: str) -> PhaseFunction:
    grid, hbar, values = _load(path, "phase-function", lambda h: PhaseGrid(
        n=int(h["n"]), N=int(h["N"]), X=float(h["X"]), N_p=int(h["N_p"]),
        P_max=float(h["P_max"])))
    return PhaseFunction(grid, hbar, values)
