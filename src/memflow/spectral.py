"""Dirichlet eigenbasis on the unit interval and the weighted-coefficient scale.

A function is a finite coefficient sequence (a_j)_{j<=J} against the
orthonormal eigenfunctions of the Laplacian; the H^s norm weights |a_j|^2 by
eta_j^s.  All values immutable, all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EigenBasis",
    "SpectralVec",
    "interval_basis",
    "hs_norm",
    "apply_A_power",
    "apply_minus_A_power",
    "project_function",
    "evaluate_on_grid",
    "vec_to_csv_line",
    "vec_from_csv_line",
]


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs of minus the Dirichlet Laplacian sampled on a spatial grid.

    eigenvalues are strictly increasing and positive; `funcs[j, k]` holds the
    j-th normalized eigenfunction at grid point x[k]; `weights` are the
    quadrature weights that make the sampled family discretely orthonormal.
    """

    domain_id: str
    J: int
    eigenvalues: np.ndarray
    x: np.ndarray
    weights: np.ndarray
    funcs: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or len(ev) != self.J:
            raise ValueError("eigenvalues must be a length-J vector")
        if not (ev[0] > 0 and np.all(np.diff(ev) > 0)):
            raise ValueError("eigenvalues must be positive and strictly increasing")
        for name in ("eigenvalues", "x", "weights", "funcs"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class SpectralVec:
    """Coefficient sequence with a declared smoothness exponent.

    The exponent tags intent only; truncation makes every H^s norm finite.
    """

    coeffs: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    def __len__(self):
        return len(self.coeffs)


def interval_basis(J, n_x):
    """Sine eigenbasis of the unit interval on a cell-midpoint grid.

    eta_j = (j pi)^2, e_j(x) = sqrt(2) sin(j pi x); the midpoint grid makes the
    sampled family exactly orthonormal for j <= J when n_x >= 4 J.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if n_x < 4 * J:
        raise ValueError("n_x must be at least 4*J to resolve all modes")
    j = np.arange(1, J + 1)
    x = (np.arange(n_x) + 0.5) / n_x
    w = np.full(n_x, 1.0 / n_x)
    funcs = np.sqrt(2.0) * np.sin(np.outer(j, np.pi * x))
    return EigenBasis(
        domain_id="interval(0,1)",
        J=J,
        eigenvalues=(j * np.pi) ** 2,
        x=x,
        weights=w,
        funcs=funcs,
    )


def _coeffs(v):
    return v.coeffs if isinstance(v, SpectralVec) else np.asarray(v, dtype=float)


def hs_norm(basis, v, s):
    """(sum_j a_j^2 eta_j^s)^(1/2)."""
    a = _coeffs(v)
    return float(np.sqrt(np.sum(a**2 * basis.eigenvalues[: len(a)] ** s)))


def apply_A_power(basis, v, k):
    """Integer power of the generator: a_j -> (-eta_j)^k a_j."""
    if int(k) != k:
        raise ValueError("apply_A_power needs an integer exponent; use "
                         "apply_minus_A_power for fractional powers")
    a = _coeffs(v)
    out = (-basis.eigenvalues[: len(a)]) ** int(k) * a
    return SpectralVec(out, s=(v.s if isinstance(v, SpectralVec) else 0.0))


def apply_minus_A_power(basis, v, k):
    """Real (possibly half-integer) power of the positive operator:
    a_j -> eta_j^k a_j."""
    a = _coeffs(v)
    out = basis.eigenvalues[: len(a)] ** float(k) * a
    return SpectralVec(out, s=(v.s if isinstance(v, SpectralVec) else 0.0))


def project_function(basis, samples):
    """Coefficients a_j = sum_k w_k f(x_k) e_j(x_k) of grid samples."""
    samples = np.asarray(samples, dtype=float)
    return SpectralVec(basis.funcs @ (basis.weights * samples))


def evaluate_on_grid(basis, v):
    """Grid samples sum_j a_j e_j(x_k) of a coefficient vector."""
    a = _coeffs(v)
    return a @ basis.funcs[: len(a)]


def vec_to_csv_line(v):
    """Serialize as "s, a_1, a_2, ..., a_J"."""
    parts = [repr(float(v.s))] + [repr(float(a)) for a in v.coeffs]
    return ", ".join(parts)


def vec_from_csv_line(line):
    parts = [p.strip() for p in line.strip().split(",")]
    if len(parts) < 2:
        raise ValueError("expected 's, a_1, ...'")
    return SpectralVec(np.array([float(p) for p in parts[1:]]), s=float(parts[0]))
