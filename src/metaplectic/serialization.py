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

import json

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


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        n = int(obj["n"])
        entries = np.asarray(obj["entries"], dtype=float).reshape(2 * n, 2 * n)
    except KeyError as exc:
        raise ValueError(f"matrix JSON is missing key {exc}") from exc
    return entries


def generating_to_json(w: GeneratingFunction) -> dict:
    return {"n": w.n, "P": _block(w.P), "L": _block(w.L), "Q": _block(w.Q)}


def generating_from_json(obj: dict) -> GeneratingFunction:
    try:
        n = int(obj.get("n", np.atleast_2d(obj["L"]).shape[0]))
        blocks = [np.asarray(obj[k], dtype=float).reshape(n, n)
                  for k in ("P", "L", "Q")]
    except KeyError as exc:
        raise ValueError(f"generating-function JSON is missing key {exc}") from exc
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
    return [(generating_from_json(entry), int(entry.get("m", 0)) % 4)
            for entry in obj]


def _write_payload(fh, values: np.ndarray) -> None:
    flat = np.asarray(values, dtype=complex).ravel()
    np.savetxt(fh, np.column_stack([flat.real, flat.imag]),
               delimiter=",", fmt="%.17g")


def _read_payload(fh, count: int) -> np.ndarray:
    data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (count, 2):
        raise ValueError(f"expected {count} re,im rows, got shape {data.shape}")
    return data[:, 0] + 1j * data[:, 1]


def save_sampled(path: str, f: SampledFunction) -> None:
    header = {"n": f.grid.n, "N": f.grid.N, "X": float(f.grid.X),
              "hbar": float(f.hbar)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        _write_payload(fh, f.values)


def load_sampled(path: str) -> SampledFunction:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        try:
            grid = Grid(n=int(header["n"]), N=int(header["N"]), X=float(header["X"]))
            hbar = float(header["hbar"])
        except KeyError as exc:
            raise ValueError(f"sampled-function header is missing key {exc}") from exc
        flat = _read_payload(fh, grid.N ** grid.n)
    return SampledFunction(grid, hbar, flat.reshape(grid.shape()), check_tails=False)


def save_phase(path: str, F: PhaseFunction) -> None:
    g = F.grid
    header = {"n": g.n, "N": g.N, "X": float(g.X), "N_p": g.N_p,
              "P_max": float(g.P_max), "hbar": float(F.hbar)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        _write_payload(fh, F.values)


def load_phase(path: str) -> PhaseFunction:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        try:
            grid = PhaseGrid(n=int(header["n"]), N=int(header["N"]),
                             X=float(header["X"]), N_p=int(header["N_p"]),
                             P_max=float(header["P_max"]))
            hbar = float(header["hbar"])
        except KeyError as exc:
            raise ValueError(f"phase-function header is missing key {exc}") from exc
        flat = _read_payload(fh, grid.N * grid.N_p)
    return PhaseFunction(grid, hbar, flat.reshape(grid.shape()))
