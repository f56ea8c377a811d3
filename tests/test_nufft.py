"""Type-2 NUFFT: accuracy against the dense trigonometric sum, target
shape, and block independence."""

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


# (7, 10) puts both axes on the 4 * _WIDTH fine-grid floor; (478, 348) is
# the largest call of the extended-operator test's reference
@pytest.mark.parametrize("modes", [(7, 10), (33, 40), (64, 51), (478, 348)], ids=str)
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
