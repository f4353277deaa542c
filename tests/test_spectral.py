import math

import numpy as np
import pytest

from memflow.spectral import hs_norm, interval_basis


@pytest.fixture(scope="module")
def basis():
    return interval_basis(8, 64)


def test_eigenvalues():
    b = interval_basis(1, 8)
    assert b.eigenvalues[0] == pytest.approx(math.pi**2, rel=1e-14)


def test_eigenfunction_midpoint():
    b = interval_basis(4, 32)
    k = np.argmin(np.abs(b.x - 0.5))
    # midpoint grid has no node exactly at 1/2 for even n_x; check the value there
    assert math.sqrt(2) * math.sin(math.pi * b.x[k]) == pytest.approx(
        b.funcs[0, k], rel=1e-14)
    # for odd n_x node 16 of 33 sits at x = 1/2 exactly
    b = interval_basis(4, 33)
    assert b.x[16] == 0.5
    assert b.funcs[0, 16] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert abs(b.funcs[1, 16]) <= 1e-15


def test_discrete_orthonormality(basis):
    G = (basis.funcs * basis.weights) @ basis.funcs.T
    assert np.abs(G - np.eye(basis.J)).max() < 1e-10


def test_hs_norm_single_mode(basis):
    v = np.array([1.0] + [0.0] * 7)
    assert hs_norm(basis, v, -4.0) == pytest.approx(math.pi**-4, rel=1e-13)


def test_hs_norm_zero(basis):
    assert hs_norm(basis, np.zeros(8), 2.0) == 0.0


def test_hs_norm_monotone_in_s(basis, rng):
    v = rng.standard_normal(8)
    # all eigenvalues exceed 1, so the norm grows with s
    assert hs_norm(basis, v, -2.0) <= hs_norm(basis, v, 0.0) <= hs_norm(basis, v, 2.0)


def test_norm_shift_identity(basis, rng):
    # a_j -> a_j / eta_j shifts the norm exponent by +2
    v = rng.standard_normal(8)
    for s in (-6.0, -4.0, 0.0, 4.0):
        lhs = hs_norm(basis, v / basis.eigenvalues, s + 2.0)
        rhs = hs_norm(basis, v, s)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_evaluate_single_mode(basis):
    f = np.array([1.0] + [0.0] * 7) @ basis.funcs
    assert np.allclose(f, math.sqrt(2) * np.sin(math.pi * basis.x))


def test_parseval(basis, rng):
    v = rng.standard_normal(8)
    f = v @ basis.funcs
    grid_norm = math.sqrt(float(np.sum(basis.weights * f**2)))
    assert grid_norm == pytest.approx(hs_norm(basis, v, 0.0), abs=1e-8)


def test_basis_validation():
    with pytest.raises(ValueError):
        interval_basis(8, 16)  # n_x < 4 J
    with pytest.raises(ValueError):
        interval_basis(0, 16)
