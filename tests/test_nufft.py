"""Type-2 NUFFT: accuracy against the dense trigonometric sum, block
independence, and the tabulated Kaiser-Bessel window."""

import math

import numpy as np
import pytest

import metaplectic.nufft as nufft
from metaplectic.nufft import nufft2d2


def _dense(xi1, xi2, coeffs):
    j_modes, k_modes = coeffs.shape
    m1 = np.arange(j_modes) - j_modes // 2
    m2 = np.arange(k_modes) - k_modes // 2
    e1 = np.exp(1j * np.multiply.outer(xi1.ravel(), m1))
    e2 = np.exp(1j * np.multiply.outer(xi2.ravel(), m2))
    return np.einsum("qj,jk,qk->q", e1, coeffs, e2).reshape(xi1.shape)


def _case(seed, j_modes, k_modes, q):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((j_modes, k_modes)) + 1j * rng.standard_normal((j_modes, k_modes))
    edges = np.array([-math.pi, 0.0, np.nextafter(math.pi, 0.0)])
    xi1 = np.concatenate([np.repeat(edges, 3), rng.uniform(-math.pi, math.pi, q)])
    xi2 = np.concatenate([np.tile(edges, 3), rng.uniform(-math.pi, math.pi, q)])
    return xi1, xi2, coeffs


# (7, 10) puts both axes on the 4 * _WIDTH fine-grid floor
@pytest.mark.parametrize("modes", [(7, 10), (33, 40), (64, 51)], ids=str)
def test_matches_dense_sum(modes):
    xi1, xi2, coeffs = _case(0, *modes, q=400)
    exact = _dense(xi1, xi2, coeffs)
    out = nufft2d2(xi1, xi2, coeffs)
    assert np.max(np.abs(out - exact)) < 1e-10 * np.max(np.abs(exact))


def test_keeps_target_shape():
    xi1, xi2, coeffs = _case(1, 12, 9, q=51)
    out = nufft2d2(xi1.reshape(6, 10), xi2.reshape(6, 10), coeffs)
    assert out.shape == (6, 10)
    np.testing.assert_array_equal(out.ravel(), nufft2d2(xi1, xi2, coeffs))


def test_blocks_do_not_change_the_result(monkeypatch):
    xi1, xi2, coeffs = _case(2, 30, 25, q=2000)
    monkeypatch.setattr(nufft, "_TARGETS_PER_BLOCK", xi1.size)
    single = nufft2d2(xi1, xi2, coeffs)
    monkeypatch.setattr(nufft, "_TARGETS_PER_BLOCK", 37)  # ragged last block
    many = nufft2d2(xi1, xi2, coeffs)
    np.testing.assert_allclose(many, single, rtol=0, atol=1e-14 * np.max(np.abs(single)))


def test_window_table_matches_kaiser_bessel():
    # the table is fitted in x on (-1, 1]; offset t sits (x + w - 1)/2 - t
    # fine cells from the target
    w = nufft._WIDTH
    x = np.linspace(-1.0, 1.0, 4001)[1:-1]
    dist = 0.5 * (x[:, None] + (w - 1)) - np.arange(w)
    exact = nufft._kb_window(dist, 0.5 * w).T
    peak = float(nufft._kb_window(np.zeros(1), 0.5 * w)[0])
    assert np.max(np.abs(nufft._window_weights(x) - exact)) <= 1e-13 * peak


def test_no_bessel_call_after_import(monkeypatch):
    def refuse(*args):
        raise AssertionError("i0 called after import")

    monkeypatch.setattr(nufft, "i0", refuse)
    xi1, xi2, coeffs = _case(3, 16, 16, q=100)
    nufft2d2(xi1, xi2, coeffs)
