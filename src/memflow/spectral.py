"""Dirichlet eigenbasis on the unit interval and the weighted-coefficient scale.

A function is a finite coefficient sequence (a_j)_{j<=J} against the
orthonormal eigenfunctions of the Laplacian; the H^s norm weights |a_j|^2 by
eta_j^s.  All values immutable, all operations pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenBasis",
    "interval_basis",
    "hs_norm",
]


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs of minus the Dirichlet Laplacian sampled on a spatial grid.

    eigenvalues are strictly increasing and positive; `funcs[j, k]` holds the
    j-th normalized eigenfunction at grid point x[k]; `weights` are the
    quadrature weights that make the sampled family discretely orthonormal.
    """

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
        J=J,
        eigenvalues=(j * np.pi) ** 2,
        x=x,
        weights=w,
        funcs=funcs,
    )


@functools.cache
def gauss_legendre(n):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def hs_norm(basis, v, s):
    """(sum_j a_j^2 eta_j^s)^(1/2)."""
    a = np.asarray(v, dtype=float)
    return float(np.sqrt(np.sum(a**2 * basis.eigenvalues[: len(a)] ** s)))
