"""Reference values computed apart from the package under test.

Only NumPy and the standard library are used here; nothing imports
``metaplectic``.  Every function returns the exact (continuum) value of a
quantity the package computes on its lattice, or a dense quadrature whose
error sits at rounding level on the grids the workloads use:

* Hermite functions by the three-term recurrence;
* the image of a complex Gaussian under a quadratic Fourier integral
  operator, in closed form (the Gaussian integral, any n);
* the same operator on any n = 1 input by dense trapezoid summation;
* the n = 2 operator with diagonal L by two dense one-axis matrices;
* the cross-Wigner transform of two callables by dense quadrature in y;
* the Gaussian auto-Wigner function, the Bopp kernel of a Gaussian symbol,
  and the leading stationary-phase term of the extended operator.
"""

from __future__ import annotations

import math

import numpy as np

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def axis(N: int, X: float) -> np.ndarray:
    """Centered lattice x_j = (j - N/2) dx, dx = 2X/N."""
    return (np.arange(N) - N // 2) * (2.0 * X / N)


def rotation(alpha: float) -> np.ndarray:
    """Rotation by alpha in the (x, p) plane."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, s], [-s, c]])


def rotation_generating(alpha: float):
    """(P, L, Q) of the rotation: P = Q = cot(alpha), L = 1 / sin(alpha)."""
    cot = 1.0 / math.tan(alpha)
    return np.array([[cot]]), np.array([[1.0 / math.sin(alpha)]]), np.array([[cot]])


def hermite(k: int, x: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """Normalized Hermite function h_k at the points x."""
    t = np.asarray(x, dtype=float) / math.sqrt(hbar)
    h_prev, h = np.zeros_like(t), np.ones_like(t)
    for j in range(k):
        h_prev, h = h, 2.0 * t * h - 2.0 * j * h_prev
    norm = (math.pi * hbar) ** -0.25 / math.sqrt(2.0 ** k * math.factorial(k))
    return norm * h * np.exp(-t * t / 2.0)


# ----------------------------------------------------------------------
# quadratic Fourier integral operators

def _qfio_prefactor(L: np.ndarray, m: int, hbar: float) -> complex:
    n = L.shape[0]
    return ((2.0 * math.pi * hbar) ** (-n / 2.0) * np.exp(-1j * math.pi * n / 4.0)
            * (1j ** (m % 4)) * math.sqrt(abs(np.linalg.det(L))))


def gaussian_through(P, L, Q, m: int, alpha, c: complex, hbar: float = 1.0):
    """Image of c exp(-x.alpha x / 2 hbar) under the operator of (P, L, Q, m).

    S f(x) = pref Integral exp(i W(x, x') / hbar) f(x') dx' with
    W = P x.x / 2 - x'.L x + Q x'.x' / 2 is again a Gaussian
    c' exp(-x.alpha' x / 2 hbar) with alpha' = L^T (alpha - iQ)^{-1} L - iP
    and c' = c pref (2 pi hbar)^{n/2} det(alpha - iQ)^{-1/2}; the square
    root is the product of principal roots of the eigenvalues, which all
    have positive real part.
    """
    P, L, Q = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (P, L, Q))
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    n = P.shape[0]
    a_mat = alpha - 1j * Q
    root = np.prod(np.sqrt(np.linalg.eigvals(a_mat)))
    c_out = c * _qfio_prefactor(L, m, hbar) * (2.0 * math.pi * hbar) ** (n / 2.0) / root
    alpha_out = L.T @ np.linalg.solve(a_mat, L) - 1j * P
    return 0.5 * (alpha_out + alpha_out.T), complex(c_out)


def gaussian_word(factors, alpha, c, hbar: float = 1.0):
    """Push a Gaussian through a word; factors[0] is applied last."""
    for P, L, Q, m in reversed(factors):
        alpha, c = gaussian_through(P, L, Q, m, alpha, c, hbar)
    return alpha, c


def gaussian_values(alpha, c: complex, mesh, hbar: float = 1.0) -> np.ndarray:
    """Samples of c exp(-x.alpha x / 2 hbar) on a list of coordinate arrays."""
    alpha = np.atleast_2d(alpha)
    quad = sum(alpha[i, k] * mesh[i] * mesh[k]
               for i in range(len(mesh)) for k in range(len(mesh)))
    return c * np.exp(-quad / (2.0 * hbar))


def standard_gaussian(n: int, hbar: float = 1.0):
    """(alpha, c) of (pi hbar)^(-n/4) exp(-|x|^2 / 2 hbar)."""
    return np.eye(n, dtype=complex), complex((math.pi * hbar) ** (-n / 4.0))


def qfio_dense_1d(P: float, L: float, Q: float, m: int, values: np.ndarray,
                  x: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """n = 1 operator by dense trapezoid summation on the lattice x."""
    dx = x[1] - x[0]
    kernel = np.exp(1j * (0.5 * P * x[:, None] ** 2 - L * x[:, None] * x[None, :]
                          + 0.5 * Q * x[None, :] ** 2) / hbar)
    return _qfio_prefactor(np.array([[L]]), m, hbar) * dx * (kernel @ values)


def qfio_dense_2d_diagonal(P, L, Q, m: int, values: np.ndarray, x: np.ndarray,
                           hbar: float = 1.0) -> np.ndarray:
    """n = 2 operator with diagonal L: the chirps are pointwise and the
    kernel exp(-i x'.L x / hbar) factors into one dense matrix per axis."""
    P, L, Q = (np.asarray(a, dtype=float) for a in (P, L, Q))
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    chirp_q = np.exp(1j * (0.5 * Q[0, 0] * x1 ** 2 + Q[0, 1] * x1 * x2
                           + 0.5 * Q[1, 1] * x2 ** 2) / hbar)
    chirp_p = np.exp(1j * (0.5 * P[0, 0] * x1 ** 2 + P[0, 1] * x1 * x2
                           + 0.5 * P[1, 1] * x2 ** 2) / hbar)
    dx = x[1] - x[0]
    k1 = np.exp(-1j * L[0, 0] * np.outer(x, x) / hbar) * dx
    k2 = np.exp(-1j * L[1, 1] * np.outer(x, x) / hbar) * dx
    return _qfio_prefactor(L, m, hbar) * chirp_p * (k1 @ (chirp_q * values) @ k2.T)


# ----------------------------------------------------------------------
# phase space

def phase_axes(N: int, X: float, hbar: float = 1.0):
    """x and p axes of the phase grid the package pairs with (N, X)."""
    p_max = math.pi * hbar * N / (4.0 * X)
    return axis(N, X), (np.arange(N) - N // 2) * (2.0 * p_max / N)


def gaussian_wigner(x: np.ndarray, p: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """W(phi0, phi0)(x, p) = exp(-(x^2 + p^2) / hbar) / (pi hbar)."""
    return np.exp(-(x[:, None] ** 2 + p[None, :] ** 2) / hbar) / (math.pi * hbar)


def hermite1_wigner(x: np.ndarray, p: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """W(h1, h1)(x, p) = (2 r^2 / hbar - 1) exp(-r^2 / hbar) / (pi hbar)."""
    r2 = (x[:, None] ** 2 + p[None, :] ** 2) / hbar
    return (2.0 * r2 - 1.0) * np.exp(-r2) / (math.pi * hbar)


def wigner_dense(f, g, x: np.ndarray, p: np.ndarray, hbar: float = 1.0,
                 y_max: float = 30.0, dy: float = 0.04) -> np.ndarray:
    """W(f, g)(x, p) = (2 pi hbar)^-1 Integral e^{-i p y / hbar}
    f(x + y/2) conj(g(x - y/2)) dy for callables f, g, by the trapezoid
    rule on |y| <= y_max (the integrands decay long before y_max)."""
    y = np.arange(-y_max, y_max + 0.5 * dy, dy)
    corr = f(x[:, None] + 0.5 * y[None, :]) * np.conj(g(x[:, None] - 0.5 * y[None, :]))
    fourier = np.exp(-1j * np.outer(y, p) / hbar) * dy
    return (corr @ fourier) / (2.0 * math.pi * hbar)


def bopp_gaussian_kernel(F: np.ndarray, x: np.ndarray, p: np.ndarray, tau: float,
                         zc: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """Bopp operator of the twisted symbol
    (tau^2 / hbar) e^{-i sigma(z0, zc) / hbar} e^{-tau^2 |z0|^2 / 2 hbar^2}:
    Gaussian convolutions along x and p, summed densely for each p."""
    wx = np.full(x.size, x[1] - x[0])
    wx[[0, -1]] *= 0.5
    wp = np.full(p.size, p[1] - p[0])
    wp[[0, -1]] *= 0.5
    pref = 8.0 * math.pi * tau ** 2 / (2.0 * math.pi * hbar) ** 2
    dxm = x[:, None] - x[None, :]
    dpm = p[:, None] - p[None, :]
    out = np.empty_like(F, dtype=complex)
    for ip, pv in enumerate(p):
        col = np.exp(-2j * (pv - zc[1]) * dxm / hbar - 2.0 * tau ** 2 * dxm ** 2 / hbar ** 2) * wx
        row = np.exp(2j * (x[:, None] - zc[0]) * dpm[ip][None, :] / hbar
                     - 2.0 * tau ** 2 * dpm[ip][None, :] ** 2 / hbar ** 2) * wp
        # out[ix, ip] = pref * sum_jk col[ix, j] F[j, k] row[ix, k]
        out[:, ip] = pref * np.sum((col @ F) * row, axis=1)
    return out


def cayley(S: np.ndarray) -> np.ndarray:
    """M_S = J/2 + J (S - I)^{-1}, symmetrized."""
    n2 = S.shape[0]
    j = np.block([[np.zeros((n2 // 2, n2 // 2)), np.eye(n2 // 2)],
                  [-np.eye(n2 // 2), np.zeros((n2 // 2, n2 // 2))]])
    m = 0.5 * j + j @ np.linalg.inv(S - np.eye(n2))
    return 0.5 * (m + m.T)


def stationary_leading(S: np.ndarray, nu: int, F, z: np.ndarray, hbar: float) -> complex:
    """Leading small-hbar term of the extended operator at z:
    i^nu e^{i phi(z_c) / hbar} e^{i pi sgn(M) / 4} F(z - z_c / 2)
    / sqrt(|det(S - I)| |det M|), z_c = M^{-1} J z."""
    m = cayley(S)
    zc = np.linalg.solve(m, J2 @ z)
    phi = 0.5 * zc @ m @ zc - (J2 @ z) @ zc
    sgn = int(np.sum(np.linalg.eigvalsh(m) > 0) - np.sum(np.linalg.eigvalsh(m) < 0))
    amp = complex(F(z - 0.5 * zc))
    det_si = abs(np.linalg.det(S - np.eye(2)))
    return complex((1j ** (nu % 4)) * np.exp(1j * phi / hbar) * np.exp(1j * math.pi * sgn / 4.0)
                   * amp / math.sqrt(det_si * abs(np.linalg.det(m))))


def rel_err(out, ref) -> float:
    """Sup-norm relative error max|out - ref| / max|ref|."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(out - ref)))
    return err / scale if scale > 0 else err
