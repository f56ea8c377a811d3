"""Default tolerances and run configuration.

Resolution order for the command line tool: explicit flags beat config-file
values, config-file values beat these defaults.  The config file is a flat
``KEY = value`` text file; its path comes from ``--config`` or from the
``METAPLECTIC_CONFIG`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

# Matrix-level tolerances.
TOL_SYMP = 1e-10     # symplecticity / matrix identity residuals
TOL_SING = 1e-12     # singularity gate: det(S - I), det(M - J/2), det B, sin(alpha)
TOL_EIG = 1e-9       # eigenvalue cutoff when counting inertia
DET_FLOOR = 1e-6     # gate on |det(S - I)| of the phase-space integral forms

# Grid-level tolerances.  The ``verify`` certificates read FFT_TOL,
# CROSS_TOL and BOCHNER_TOL directly, so no config file can loosen them.
FFT_TOL = 1e-8       # unitarity of the hbar-scaled Fourier transform
CROSS_TOL = 1e-5     # factored vs. quadrature operator agreement
BOCHNER_TOL = 1e-3   # phase-space (Bochner) quadrature agreement
TAIL_TOL = 1e-12     # admissibility: relative tail size at the grid edge

# Grid defaults.
DEFAULT_N = 512
DEFAULT_X = 12.0
DEFAULT_HBAR = 1.0

# Truncation of the phase-space quadratures (Bochner, Bopp, oscillatory).
R_FACTOR = 3.0           # truncation radius = R_FACTOR * support radius
CUTOFF_FRACTION = 0.2    # raised-cosine roll-off over the last 20 percent

ENV_CONFIG = "METAPLECTIC_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Grid and seed settings for one run."""

    N: int = DEFAULT_N
    X: float = DEFAULT_X
    hbar: float = DEFAULT_HBAR
    seed: int = 0

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)


_INT_KEYS = {"N", "seed"}


def parse_config_text(text: str) -> dict:
    """Parse a flat ``KEY = value`` config file into a dict.

    Blank lines and ``#`` comments are ignored.  Unknown keys raise
    ``ValueError`` so typos do not silently pass.
    """
    valid = set(RunConfig.__dataclass_fields__)
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected KEY = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in valid:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        out[key] = int(value) if key in _INT_KEYS else float(value)
    return out


def load_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from defaults, the config file (if any), and env."""
    cfg = RunConfig()
    path = path or os.environ.get(ENV_CONFIG)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = cfg.with_overrides(**parse_config_text(fh.read()))
    return cfg
