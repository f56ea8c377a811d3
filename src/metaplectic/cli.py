"""Command line entry point.

One executable exposes the whole library: symplectic linear algebra,
index bookkeeping, configuration-space and phase-space operators, the
S0 (Feichtinger) diagnostics, small-hbar asymptotics, a worked rotation
demo, and the ``verify`` invariant suites.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numerical-domain error (singular matrices, inadmissible grids, ...).

Run settings (``--config``, ``--N``, ``--X``, ``--hbar``, and ``--seed``
for ``verify``) belong to ``verify`` and ``demo-rotation``, the commands
that read them.  Precedence: explicit flag > ``--config`` file (or the
file named by METAPLECTIC_CONFIG) > built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import config as config_mod
from .asymptotics import metaplectic_asymptotic
from .config import RunConfig, load_config
from .errors import NumericalDomainError
from .feichtinger import s0_norm
from .grids import Grid, gaussian, hermite_function
from .indices import conley_zehnder, inertia, maslov_branch, signature
from .operators import (bochner_apply, heisenberg_weyl, MetaplecticWord,
                        qfio_apply)
from .phase_space import compose_linear, cross_wigner, metaplectic_phase_apply, moyal_inner
from .serialization import (generating_from_json,
                            load_phase, load_sampled, matrix_from_json,
                            matrix_to_json, save_phase, save_sampled,
                            word_from_json)
from .symplectic import (cayley, cayley_inverse, det_s_minus_i,
                         free_from_generating, rotation, rotation_generating,
                         SymplecticMatrix)
from .verify import _bump, report_text, run_suite, SUITES

__all__ = ["main", "build_parser"]


def _emit_text(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# subcommand handlers (each returns the process exit code)

def cmd_symplectic(args) -> int:
    obj = _load_json(args.input)
    if args.op == "free-from-generating":
        out = matrix_to_json(free_from_generating(generating_from_json(obj)).entries)
    elif args.op == "cayley":
        out = matrix_to_json(cayley(SymplecticMatrix(matrix_from_json(obj))))
    elif args.op == "cayley-inverse":
        out = matrix_to_json(cayley_inverse(matrix_from_json(obj)).entries)
    else:  # det-s-minus-i: accepts a matrix or a generating function
        if isinstance(obj, dict) and "entries" in obj:
            s = SymplecticMatrix(matrix_from_json(obj))
            out = {"value": float(np.linalg.det(s.entries - np.eye(2 * s.n)))}
        else:
            out = {"value": det_s_minus_i(generating_from_json(obj))}
    _emit_text(report_text(out), args.output)
    return 0


def cmd_indices(args) -> int:
    w = generating_from_json(_load_json(args.input))
    m = maslov_branch(w.L, args.branch)
    hess = w.hessian_xx()
    _emit_text(report_text({
        "m": m,
        "nu": conley_zehnder(w, m),
        "inertia": inertia(hess),
        "signature": signature(hess),
    }), args.output)
    return 0


def _word_nu_factors(word):
    """(S_i, nu_i) per factor, for realizations indexed by Conley-Zehnder."""
    out = []
    for w, m in word:
        out.append((free_from_generating(w), conley_zehnder(w, m)))
    return out


def cmd_apply(args) -> int:
    word = word_from_json(_load_json(args.word))
    f = load_sampled(args.infile)
    if args.method in ("factored", "quadrature"):
        f = MetaplecticWord(word).apply(f, method=args.method)
    else:  # bochner: factors act right-to-left, each through its own S, nu
        for (s, nu) in reversed(_word_nu_factors(word)):
            f = bochner_apply(s, nu, f)
    save_sampled(args.outfile, f)
    return 0


def cmd_wigner(args) -> int:
    f = load_sampled(args.f)
    g = load_sampled(args.g) if args.g else f
    save_phase(args.outfile, cross_wigner(f, g))
    return 0


def cmd_phase_apply(args) -> int:
    word = word_from_json(_load_json(args.word))
    F = load_phase(args.infile)
    for (s, nu) in reversed(_word_nu_factors(word)):
        F = metaplectic_phase_apply(s, nu, F, form=args.form)
    save_phase(args.outfile, F)
    return 0


def cmd_moyal(args) -> int:
    value = moyal_inner(load_phase(args.f), load_phase(args.g))
    _emit_text(report_text({"re": value.real, "im": value.imag}), args.output)
    return 0


def cmd_s0(args) -> int:
    psi = load_sampled(args.psi)
    if args.window.startswith("hermite:"):
        k = int(args.window.split(":", 1)[1])
        window = hermite_function(k, psi.grid, psi.hbar)
        window_id = f"hermite:{k}"
    else:
        window = load_sampled(args.window)
        window_id = os.path.basename(args.window)
    rep = s0_norm(psi, window, window_id=window_id)
    _emit_text(report_text({"norm_value": rep.norm_value, "window_id": rep.window_id,
                            "truncation_estimate": rep.truncation_estimate}),
               args.output)
    return 0


def cmd_asymptotic(args) -> int:
    alpha = args.alpha
    s = rotation(alpha)
    w = rotation_generating(alpha)
    m = 0 if math.sin(alpha) > 0 else 1
    nu = conley_zehnder(w, m)
    z = np.asarray([float(v) for v in args.z.split(",")], dtype=float)
    if z.size != 2:
        raise NumericalDomainError(f"--z wants two comma-separated reals, got {args.z!r}")

    lines = ["hbar,abs_leading,abs_quadrature,relative_error"]
    for tok in args.hbar_list.split(","):
        hbar = float(tok)
        res = metaplectic_asymptotic(s, nu, _bump, z, hbar=hbar,
                                     support_radius=args.support_radius)
        lines.append(f"{hbar:.17g},{abs(res.leading):.17g},"
                     f"{abs(res.quadrature):.17g},{res.relative_error:.17g}")
    _emit_text("\n".join(lines) + "\n", args.output)
    return 0


def cmd_demo_rotation(args) -> int:
    cfg = _run_config(args)
    alpha = args.alpha
    grid = Grid(n=1, N=cfg.N, X=cfg.X)
    hbar = cfg.hbar
    # a displaced Gaussian, so the Wigner blob visibly moves under rotation
    dx = grid.dx
    dp = math.pi * hbar / grid.X
    z0 = np.array([round(2.0 / dx) * dx, round(1.0 / dp) * dp])
    f = heisenberg_weyl(gaussian(grid, hbar), z0)
    w = rotation_generating(alpha)
    m = 0 if math.sin(alpha) > 0 else 1
    sf = qfio_apply(w, m, f)

    wf = cross_wigner(f, f)
    wsf = cross_wigner(sf, sf)
    s = rotation(alpha)
    rotated = compose_linear(wf, s.inv().entries)
    cov_err = float(np.max(np.abs(wsf.values - rotated.values))
                    / np.max(np.abs(wf.values)))

    os.makedirs(args.outdir, exist_ok=True)
    save_sampled(os.path.join(args.outdir, "input.csv"), f)
    save_sampled(os.path.join(args.outdir, "output.csv"), sf)
    save_phase(os.path.join(args.outdir, "wigner_input.csv"), wf)
    save_phase(os.path.join(args.outdir, "wigner_output.csv"), wsf)
    _emit_text(report_text({
        "alpha": alpha,
        "cayley_diagonal": 0.5 / math.tan(alpha / 2.0),
        "cayley_diagonal_computed": float(cayley(s)[0, 0]),
        "det_s_minus_i": float(np.linalg.det(s.entries - np.eye(2))),
        "wigner_covariance_error": cov_err,
    }), os.path.join(args.outdir, "summary.json"))
    print(f"demo-rotation: wrote 5 files to {args.outdir} "
          f"(covariance error {cov_err:.2e})")
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, _run_config(args))
    _emit_text(report_text(report), args.output)
    return 0 if report["all_passed"] else 1


# ----------------------------------------------------------------------
# parser

def _add_run_settings(parser: argparse.ArgumentParser, seed: bool) -> None:
    """The run-setting flags, on the subcommands that read them."""
    parser.add_argument("--config", help="flat KEY = value config file "
                                          f"(or ${config_mod.ENV_CONFIG})")
    parser.add_argument("--N", type=int, help="grid points per axis")
    parser.add_argument("--X", type=float, help="grid half-width")
    parser.add_argument("--hbar", type=float)
    if seed:
        parser.add_argument("--seed", type=int, help="seed for randomized verify suites")


def _run_config(args) -> RunConfig:
    """Flag > ``--config`` file (or METAPLECTIC_CONFIG) > built-in default."""
    return load_config(args.config).with_overrides(
        N=args.N, X=args.X, hbar=args.hbar, seed=getattr(args, "seed", None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaplectic",
        description="metaplectic operators on configuration and phase space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symplectic", help="matrix-level operations")
    p.add_argument("--op", required=True,
                   choices=["free-from-generating", "cayley",
                            "cayley-inverse", "det-s-minus-i"])
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_symplectic)

    p = sub.add_parser("indices", help="Maslov / Conley-Zehnder indices of a "
                                       "generating function")
    p.add_argument("--input", required=True, help="generating-function JSON")
    p.add_argument("--branch", type=int, default=0, choices=[0, 1, 2, 3])
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("apply", help="apply a metaplectic word to a sampled "
                                     "function")
    p.add_argument("--word", required=True, help="JSON list of {P,L,Q,m}")
    p.add_argument("--method", default="factored",
                   choices=["factored", "quadrature", "bochner"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("wigner", help="cross-Wigner transform W(f, g)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", default=None, help="defaults to --f (auto-Wigner)")
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("phase-apply", help="apply the phase-space operator of "
                                           "a metaplectic word")
    p.add_argument("--word", required=True)
    p.add_argument("--form", default="s1", choices=["s1", "alfa1", "alfa2"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_phase_apply)

    p = sub.add_parser("moyal", help="phase-space inner product (F|G)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_moyal)

    p = sub.add_parser("s0", help="Feichtinger-algebra norm diagnostics")
    p.add_argument("--psi", required=True)
    p.add_argument("--window", default="hermite:0",
                   help="window file or hermite:k")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_s0)

    # no prefix matching: --hbar must not pass for --hbar-list
    p = sub.add_parser("asymptotic", allow_abbrev=False,
                       help="leading small-hbar term vs. quadrature for a rotation")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--hbar-list", required=True,
                   help="comma-separated hbar values")
    p.add_argument("--z", required=True, help="evaluation point x,p")
    p.add_argument("--support-radius", type=float, default=5.0)
    p.add_argument("--out", dest="output", default=None)
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("demo-rotation", help="worked rotation example with "
                                             "data files")
    p.add_argument("--alpha", type=float, default=math.pi / 2)
    p.add_argument("--outdir", default="demo_rotation_out")
    _add_run_settings(p, seed=False)
    p.set_defaults(func=cmd_demo_rotation)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", default="core", choices=list(SUITES))
    p.add_argument("--output", default=None)
    _add_run_settings(p, seed=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
