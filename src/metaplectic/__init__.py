"""Numerical metaplectic operators on configuration space and phase space.

The package realizes the double cover of the linear symplectic group as
unitary operators on sampled functions (quadratic Fourier integral
operators, with exact Maslov / Conley-Zehnder index bookkeeping), extends
them to phase space through the cross-Wigner transform and Bopp calculus,
and cross-validates every realization against independent quadrature
oracles and small-hbar stationary-phase asymptotics.
"""

from .asymptotics import (AsymptoticResult, metaplectic_asymptotic,
                          oscillatory_quadrature, phase_critical_point,
                          phase_critical_value, QuadraticPhase,
                          stationary_phase)
from .config import RunConfig, load_config
from .errors import (BandwidthExceededWarning, DegenerateMatrixError,
                     DegeneratePhaseError, FactorizationFailedError,
                     GridMismatchError, NonIntegralIndexError, NotFreeError,
                     NumericalDomainError, OutOfDomainError, ParityMismatchError,
                     SingularAngleError, SingularMMinusHalfJError,
                     SingularSMinusIError, TruncationError)
from .feichtinger import (invariance_check, s0_norm, S0Report,
                          s0_via_phase_metaplectic)
from .grids import (gaussian, Grid, hermite_function, sample,
                    SampledFunction)
from .indices import (conley_zehnder, cz_compose, cz_sign_check, inertia,
                      maslov_branch, maslov_compose, signature)
from .operators import (bochner_apply, chirp_multiply, factor_pair,
                        hbar_fourier, heisenberg_weyl, MetaplecticWord,
                        qfio_apply, scale_op, support_radius)
from .phase_space import (bopp_apply, compose_linear, cross_wigner,
                          metaplectic_phase_apply, moyal_inner,
                          PhaseFunction, PhaseGrid, phase_shift,
                          wigner_basis)
from .serialization import (generating_from_json, generating_to_json,
                            load_phase, load_sampled, matrix_from_json,
                            matrix_to_json, save_phase, save_sampled,
                            word_from_json, word_to_json)
from .symplectic import (cayley, cayley_inverse, chirp_matrix,
                         det_s_minus_i, free_from_generating,
                         GeneratingFunction, generating_from_free, is_free,
                         is_symplectic, random_free_generating,
                         random_symplectic, rotation, rotation_generating,
                         scaling_matrix, standard_j, symplectic_form,
                         SymplecticMatrix)
from .verify import run_suite, SUITES

# Loaded with the package, although no package module calls it (it is the
# tests' reference evaluator): after ``import metaplectic`` every module but
# the command line is in place, and perfbench's tracer wraps the functions
# of exactly those modules, so the NUFFT keeps its per-layer metrics.
from . import nufft

__version__ = "0.1.0"

__all__ = [
    "AsymptoticResult", "BandwidthExceededWarning", "DegenerateMatrixError",
    "DegeneratePhaseError", "FactorizationFailedError", "GeneratingFunction",
    "Grid", "GridMismatchError", "MetaplecticWord", "NonIntegralIndexError",
    "NotFreeError", "NumericalDomainError", "OutOfDomainError", "ParityMismatchError",
    "PhaseFunction", "PhaseGrid", "QuadraticPhase", "RunConfig",
    "S0Report", "SampledFunction", "SingularAngleError",
    "SingularMMinusHalfJError", "SingularSMinusIError", "SymplecticMatrix",
    "TruncationError", "SUITES",
    "bochner_apply", "bopp_apply", "cayley", "cayley_inverse",
    "chirp_matrix", "chirp_multiply", "compose_linear", "conley_zehnder",
    "cross_wigner", "cz_compose", "cz_sign_check", "det_s_minus_i",
    "factor_pair", "free_from_generating", "gaussian",
    "generating_from_free", "generating_from_json", "generating_to_json",
    "hbar_fourier", "heisenberg_weyl", "hermite_function", "inertia",
    "invariance_check", "is_free", "is_symplectic", "load_config",
    "load_phase", "load_sampled", "maslov_branch", "maslov_compose",
    "matrix_from_json", "matrix_to_json", "metaplectic_asymptotic",
    "metaplectic_phase_apply", "moyal_inner", "oscillatory_quadrature",
    "phase_critical_point", "phase_critical_value", "phase_shift",
    "qfio_apply", "random_free_generating", "random_symplectic",
    "rotation", "rotation_generating", "run_suite", "s0_norm",
    "s0_via_phase_metaplectic", "sample", "save_phase", "save_sampled",
    "scale_op", "scaling_matrix", "signature", "standard_j",
    "stationary_phase", "support_radius", "symplectic_form",
    "wigner_basis", "word_from_json", "word_to_json",
]
