"""Per-mode propagators of the memory heat flow, by three independent routes.

In the eigenbasis the evolution decouples: each mode solves the scalar
integro-differential equation

    y'(t) = -eta y(t) - (M * y)(t) + f(t),   y(0) given,

where * is convolution on [0, t].  Routes implemented:

  * time stepping (trapezoidal convolution quadrature, implicit in the stiff
    -eta y term; the update equation is linear in the new value and solved
    exactly).  M is an exponential polynomial, so the quadrature's history
    sum follows an exact recurrence (the exact case of fast convolution
    quadrature): K = sum_z (m_z + 1) states per mode, one block per distinct
    complex rate z of top power m_z (conjugate rates share a block, so K = 1
    for exp(-a t) and for exp(-a t) cos(b t)).  One step is then a constant
    linear map A per mode on K + 2 real states (2K + 2 for complex rates),
    and the forward, forced and adjoint runs are one blocked scan of it
    (``_scan``): in blocks of L ~ sqrt(n) steps, about sqrt(n) batched
    (J, K+2, K+2) products and a few batched products over the table,
    instead of n Python-level steps or the O(n^2 J) direct sum,
  * the integral representation  phi(t) = e^{-eta t} + int_0^t K(t,u) e^{-eta u} du
    with the series kernel K,
  * the order-N decomposition into a smoothing part, an instantaneous
    multiplier part, and a quadrature remainder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss

from .kernels import (
    ExpPolyFn,
    TruncationError,
    format_kernel,
    h_coeff,
    kernel_c_norm,
    km_partial,
    p_coeff,
)
from .spectral import SpectralVec

__all__ = [
    "StepSizeError",
    "QuadratureError",
    "RouteMismatchError",
    "volterra_mode",
    "volterra_modes",
    "volterra_influence",
    "kernel_rep_mode",
    "kernel_rep_profile",
    "remainder_RN_mode",
    "remainder_profile",
    "remainder_bound",
    "DecompositionParts",
    "decomposition_mode",
    "first_nonzero_h_index",
    "FlowTable",
    "build_flow_table",
    "flow_apply",
    "flow_table_to_csv",
    "forced_solution",
]

DEFAULT_KM_TRUNCATION = 40
DEFAULT_DECOMP_ORDER = 4


class StepSizeError(ValueError):
    """Explicit predictor would be unstable: eta * dt exceeds 2."""


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the achieved error estimate."""


# ---------------------------------------------------------------------------
# trapezoidal convolution-quadrature time stepping
# ---------------------------------------------------------------------------

def _memory_recurrence(M, dt):
    """Compile M for the step dt into the exact recurrence of its history sums.

    Writing M(t) = sum_k c_k t^{m_k} e^{z_k t}, the states
    Z[z, p]_i = sum_{d>=1} (d dt)^p e^{z d dt} v_{i-d} obey
    Z_{i+1} = W (Z_i + e v_i) with W[p, q] = binom(p, q) dt^(p-q) e^{z dt}
    (q <= p) on the block of rate z, so that

        sum_{d>=1} M(d dt) v_{i-d} = Re(c @ Z_i).

    Each distinct rate z with top power m carries m+1 states: the blocks are
    the rows of M's stored form, in which conjugate rates of a real kernel
    already share one row (Im z >= 0, coefficient doubled).  The states are
    real when every rate is.

    Returns (c, W, w), where w = W e is the column that injects v_i.
    """
    rates, C = M.rates, M.C
    tops = [int(np.flatnonzero(row)[-1]) for row in C]
    K = sum(tops) + len(tops)
    c = np.zeros(K, dtype=complex)
    W = np.zeros((K, K), dtype=complex)
    w = np.zeros(K, dtype=complex)
    k = 0
    for z, row, top in zip(rates, C, tops):
        # a complex exp also for real z: numpy's real exp may differ by an ulp
        ez = np.exp(complex(z) * dt)
        for p in range(top + 1):
            c[k + p] = row[p]
            for q in range(p + 1):
                W[k + p, k + q] = math.comb(p, q) * dt ** (p - q) * ez
            w[k + p] = W[k + p, k]
        k += top + 1
    if C.dtype.kind == "f":
        return c.real.copy(), W.real.copy(), w.real.copy()
    return c, W, w


def _state_space(M, etas, T, n_steps):
    """The trapezoid step with its memory recurrence as one linear map per mode.

    On the real state x_i = (y_i, s_i, Z_{i+1}) of size P = K + 2 (a complex
    recurrence is split into real and imaginary parts, since s = Re(c @ Z)
    is not C-linear, and then P = 2K + 2) one step of the scheme is

        x_i = A x_{i-1} + e u_{i-1},   u_{i-1} = dt (f_{i-1} + f_i) / 2,

    with y_i = (b y_{i-1} - s_{i-1} - s_i + u_{i-1}) / a, s_i = c . Z_i and
    Z_{i+1} = W Z_i + w y_i.  Returns dt, q0 = dt^2 M(0) / 4, A (J, P, P),
    e (J, P) and the injection column w of the states.

    Raises StepSizeError when eta*dt > 2 for some mode.
    """
    dt = T / n_steps
    if np.max(etas) * dt > 2.0:
        raise StepSizeError(
            f"eta*dt = {np.max(etas) * dt:.3g} > 2; refine the grid "
            f"(n_steps >= {int(math.ceil(np.max(etas) * T / 2.0)) + 1})"
        )
    c, W, w = _memory_recurrence(M, dt)
    if np.iscomplexobj(W):
        c = np.concatenate([c.real, -c.imag])
        W = np.block([[W.real, -W.imag], [W.imag, W.real]])
        w = np.concatenate([w.real, w.imag])
    c = 0.5 * dt * dt * c
    q0 = 0.25 * dt * dt * float(M.eval(0.0))
    inv_a = 1.0 / (1.0 + 0.5 * dt * etas + q0)
    J, K = len(etas), len(c)
    A = np.zeros((J, K + 2, K + 2))
    A[:, 0, 0] = (1.0 - 0.5 * dt * etas - q0) * inv_a
    A[:, 0, 1] = -inv_a
    A[:, 0, 2:] = -inv_a[:, None] * c
    A[:, 1, 2:] = c
    A[:, 2:, 2:] = W
    A[:, 2:, :] += w[:, None] * A[:, None, 0, :]  # + w y_i, y_i from row 0
    e = np.zeros((J, K + 2))
    e[:, 0] = inv_a
    e[:, 2:] = w * inv_a[:, None]
    return dt, q0, A, e, w


def _scan(A, x0, n_out, e=None, u=None):
    """First components y_i of x_i = A x_{i-1} (+ e u_{i-1}), 0 <= i < n_out.

    A two-level prefix scan (Blelloch 1990) of the constant map.  Within a
    block of L ~ sqrt(n_out) positions, y_{bL+k} = (e_0^T A^k) X_b plus the
    lower-triangular Toeplitz product of the impulse response h_k = e_0^T A^k e
    with the block's forcing; from block to block the state X_b = x_{bL} is
    carried by A^L, plus the forcing that the columns A^k e carry out of the
    block.  L is a power of two, so the rows e_0^T A^k and columns A^k e are
    built by doubling, which leaves A^L, and a run costs about
    2 log2(L) + n_out/L batched (J, P, P) products and a few batched matrix
    products over the table; no (n_out, J, P) array is formed.

    A (J, P, P), x0 (J, P), e (J, P), u (n_out - 1, J); returns (n_out, J).
    """
    J, P, _ = A.shape
    L = 1 << (int(n_out).bit_length() // 2)
    nb = -(-n_out // L)
    rows = np.zeros((J, L, P))
    rows[:, 0, 0] = 1.0
    if u is not None:
        cols = np.zeros((J, L, P))
        cols[:, 0] = e
    Ap, m = A, 1  # Ap = A^m
    while m < L:
        k = min(m, L - m)
        rows[:, m:m + k] = rows[:, :k] @ Ap
        if u is not None:
            cols[:, m:m + k] = cols[:, :k] @ Ap.transpose(0, 2, 1)
        Ap, m = Ap @ Ap, 2 * m
    F = np.zeros((J, nb, P))  # the forcing each block carries out
    if u is not None:
        U = np.zeros((J, nb * L))
        U[:, : n_out - 1] = u.T
        U = U.reshape(J, nb, L)
        F = U @ cols[:, ::-1]
    X = np.empty((J, nb, P))
    X[:, 0] = x0
    for b in range(1, nb):
        X[:, b] = np.einsum("jpq,jq->jp", Ap, X[:, b - 1]) + F[:, b - 1]
    y = X @ rows.transpose(0, 2, 1)
    if u is not None:
        # transposed Toeplitz: toeplitz[j, m, k] = h_{k-1-m} (zero for m >= k)
        h = np.zeros((J, 2 * L - 1))
        h[:, L:] = (rows[:, :L - 1] @ e[:, :, None])[:, :, 0]
        y += U @ sliding_window_view(h, L, axis=1)[:, ::-1].copy()
    return y.reshape(J, nb * L)[:, :n_out].T


def volterra_modes(M, etas, T, n_steps, y0=None, forcing=None):
    """March all modes at once on the uniform grid t_i = i*T/n_steps.

    Trapezoid rule in the memory integral, implicit in the -eta y term:

        a y_i = b y_{i-1} - s_{i-1} - s_i + dt (f_{i-1} + f_i) / 2,

    with a = 1 + eta dt/2 + dt^2 M(0)/4, b = 1 - eta dt/2 - dt^2 M(0)/4 and
    s_i = (dt^2/2) sum_{d>=1} M(d dt) v_{i-d} (v_0 = y_0/2, v_k = y_k; at
    i = 1 the s_0 term is -dt^2 M(0) y_0/4, which makes b y_0 - s_0 the
    plain 1 - eta dt/2 decay).  The history sum follows the exact recurrence
    of ``_memory_recurrence`` (K = sum_z (m_z + 1) states per mode), so one
    step is a constant linear map on K + 2 states (``_state_space``), and the
    n steps run as a blocked scan of that map (``_scan``): about sqrt(n)
    batched (J, K+2, K+2) products and a few batched products over the
    table, instead of n steps or the O(n^2 J) direct sum.

    Parameters
    ----------
    M : ExpPolyFn
        Memory kernel.
    etas : array (J,)
        Mode eigenvalues of the positive operator.
    y0 : array (J,), optional
        Initial coefficients; defaults to all ones (propagator columns).
    forcing : array (n_steps+1, J), optional
        Forcing samples on the grid.

    Returns
    -------
    array (n_steps+1, J) of mode values.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    dt, q0, A, e, w = _state_space(M, etas, T, n_steps)
    y0 = np.ones(len(etas)) if y0 is None else np.asarray(y0, dtype=float)
    x0 = np.outer(y0, np.concatenate([[1.0, -q0], 0.5 * w]))
    if forcing is None:
        return _scan(A, x0, n_steps + 1)
    f = np.asarray(forcing, dtype=float)
    return _scan(A, x0, n_steps + 1, e, 0.5 * dt * (f[:-1] + f[1:]))


def volterra_mode(M, eta, tgrid):
    """Single-mode propagator samples on a uniform grid starting at 0.

    ``tgrid`` must be uniform with t_0 = 0; rejects eta*dt > 2.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    dt = tgrid[1] - tgrid[0]
    if tgrid[0] != 0.0 or not np.allclose(np.diff(tgrid), dt):
        raise ValueError("tgrid must be uniform and start at 0")
    return volterra_modes(M, [eta], tgrid[-1], len(tgrid) - 1)[:, 0]


def volterra_influence(M, etas, T, n_steps):
    """Exact sensitivities g[i, j] = d y_j(T) / d f_j(t_i) of the discrete scheme.

    Computed by back-substitution on the transposed stepping system, so a
    forced run reproduces  y(T) = phi(T) y0 + sum_i g[i] * f[i]  to roundoff.
    The transposed system mirrors the forward one,

        a lam_i = b lam_{i+1} - u_{i+1} - u_i,   lam_n = 1 / a,

    with u_i = (dt^2/2) sum_{k>i} M((k-i) dt) lam_k.  Run backward in time it
    is the forward map of ``_state_space`` started from the forcing column e,
    so lam_{n-k} = e_0^T A^k e is the scheme's impulse response and comes
    from the same blocked scan as the forward run.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    dt, _, A, e, _ = _state_space(M, etas, T, n_steps)
    lam = _scan(A, e, n_steps)[::-1]  # lam_1, ..., lam_n
    g = np.zeros((n_steps + 1, len(etas)))
    g[:-1] += lam
    g[1:] += lam
    return 0.5 * dt * g


# ---------------------------------------------------------------------------
# integral representation
# ---------------------------------------------------------------------------

@functools.cache
def _unit_gauss_panels(n_gauss, split=1):
    """Read-only nodes and weights of ``_gauss_panels`` on [0, 1]."""
    edges = np.concatenate([[0.0], 2.0 ** (np.arange(36) - 35.0)])
    edges = np.interp(np.arange(36 * split + 1) / split, np.arange(37), edges)
    xg, wg = leggauss(n_gauss)
    h = 0.5 * np.diff(edges)[:, None]
    nodes, weights = (edges[:-1, None] + h * (xg + 1.0)).ravel(), (h * wg).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_panels(t, n_gauss=12, split=1):
    """Geometrically refined Gauss-Legendre nodes on [0, t], the panels on
    [0, 1] scaled by t, each cut into ``split`` equal panels.

    The 36 geometric levels toward 0 resolve boundary layers e^{-eta s}
    for eta up to ~2^36 / t with a fixed node set shared by all modes.
    """
    nodes, weights = _unit_gauss_panels(n_gauss, split)
    return t * nodes, t * weights


def _series_kernel(M, t, J_max, check_tol):
    """The series kernel K(t, s) of M; with ``check_tol``, TruncationError
    unless its tail bound on [0, t] is at most check_tol."""
    K = km_partial(M, 0, J_max)
    if check_tol is not None and (bound := K.tail_bound(t, t)) > check_tol:
        raise TruncationError(f"series tail bound {bound:.3e} exceeds {check_tol:.3e} at t={t}")
    return K


def kernel_rep_profile(M, t, etas, J_max=DEFAULT_KM_TRUNCATION, check_tol=None):
    """phi(t) for an array of modes via the integral representation.

    Shares one set of kernel samples across all modes; the quadrature grid is
    geometrically refined toward u = 0 so the exponential boundary layer of
    every mode is resolved.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    if t == 0.0:
        return np.ones_like(etas)
    s, w = _gauss_panels(t)
    Kv = _series_kernel(M, t, J_max, check_tol).eval(t, s)
    return np.exp(-etas * t) + np.exp(-np.outer(etas, s)) @ (w * Kv)


def kernel_rep_mode(M, eta, t, J_max=DEFAULT_KM_TRUNCATION, check_tol=None):
    """Single-mode propagator value via the kernel representation, with a
    convergence check.

    Integrates on the geometric Gauss panels of ``kernel_rep_profile`` at 12
    and at 16 nodes per panel, cutting every panel in 2, 4, ..., 64 until the
    two integrals agree to max(1e-12, 1e-11 |integral|) plus the rounding the
    series kernel itself carries (machine epsilon times the integral of
    ``K.eval_abs``; no node count removes it).  Past 64 raise QuadratureError
    carrying the achieved error estimate.  Truncation failures propagate from
    the series evaluator.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 1.0
    K = _series_kernel(M, t, J_max, check_tol)
    rounding = None
    for split in (1, 2, 4, 8, 16, 32, 64):
        coarse, fine = (float(w @ (K.eval(t, s) * np.exp(-eta * s)))
                        for s, w in (_gauss_panels(t, 12, split), _gauss_panels(t, 16, split)))
        err, tol = abs(fine - coarse), max(1e-12, 1e-11 * abs(fine))
        if err > tol and rounding is None:  # one more kernel pass, only here
            s, w = _gauss_panels(t, 16)
            rounding = np.finfo(float).eps * float(w @ (K.eval_abs(t, s) * np.exp(-eta * s)))
        if err <= tol + (rounding or 0.0):
            return math.exp(-eta * t) + fine
    raise QuadratureError(f"kernel-representation quadrature error estimate "
                          f"{err:.3e} exceeds {tol + rounding:.3e}")


# ---------------------------------------------------------------------------
# decomposition route
# ---------------------------------------------------------------------------

def remainder_profile(M, t, N, etas, n_gauss=12):
    """Remainder multiplier values R_N(t, eta) for an array of modes.

    R_N(t, eta) = int_0^t eta e^{-eta s} (d/ds)^N K(t, s) ds, evaluated with a
    geometric-panel Gauss rule sharing kernel samples across modes, on the
    series kernel of DEFAULT_KM_TRUNCATION terms.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    if t == 0.0:
        return np.zeros_like(etas)
    s, w = _gauss_panels(t, n_gauss=n_gauss)
    Kv = km_partial(M, N, DEFAULT_KM_TRUNCATION).eval(t, s)
    return etas * (np.exp(-np.outer(etas, s)) @ (w * Kv))


def remainder_RN_mode(M, eta, t, N):
    """Single-mode remainder value with a convergence check.

    Recomputes at a finer Gauss order; if the two answers differ by more than
    1e-8 (relative to max(1, |value|)) raise QuadratureError carrying the
    achieved error estimate.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    coarse = float(remainder_profile(M, t, N, [eta], n_gauss=12)[0])
    fine = float(remainder_profile(M, t, N, [eta], n_gauss=16)[0])
    err = abs(fine - coarse)
    if err > 1e-8 * max(1.0, abs(fine)):
        raise QuadratureError(f"remainder quadrature error estimate {err:.3e} exceeds 1e-8")
    return fine


def remainder_bound(M, N, t):
    """A priori bound  e^t {exp[N (1+t) sum_{k<=N} sup|M^(k)|] - 1}  on |R_N(t, .)|."""
    cn = kernel_c_norm(M, N, t)
    try:
        growth = math.exp(N * (1.0 + t) * cn)
    except OverflowError:
        return math.inf  # past the float range: valid, but vacuous
    return math.exp(t) * (growth - 1.0)


@dataclass(frozen=True)
class DecompositionParts:
    """Per-mode split of the propagator into smoothing + multiplier + remainder."""

    heat: float             # e^{-eta t} (1 + sum_l p_l(t) eta^{-l-1})
    wave: float             # sum_l h_l(t) eta^{-l-1}
    remainder_scaled: float  # R_N(t, eta) * eta^{-N-1}
    remainder_value: float   # R_N(t, eta)
    order: int
    total: float


def _decomposition(M, t, etas, N):
    """Heat part, wave part, remainder R_N and scaled remainder of the
    order-N decomposition at time t, one entry per mode."""
    inv_powers = etas[:, None] ** -(np.arange(N)[None, :] + 1.0)
    pl = np.array([p_coeff(M, l).eval(t) for l in range(N)])
    hl = np.array([h_coeff(M, l).eval(t) for l in range(N)])
    R = remainder_profile(M, t, N, etas)
    return (np.exp(-etas * t) * (1.0 + inv_powers @ pl), inv_powers @ hl,
            R, R * etas ** -(N + 1.0))


def decomposition_mode(M, eta, t, N=DEFAULT_DECOMP_ORDER):
    """Order-N decomposition of the mode propagator at time t > 0.

    Refuses t = 0 (the remainder quadrature degenerates there); callers probe
    the t -> 0 limit instead.
    """
    if t <= 0:
        raise ValueError("decomposition_mode requires t > 0")
    if N < 2:
        raise ValueError("N must be >= 2")
    heat, wave, R, scaled = (float(v[0]) for v in
                             _decomposition(M, t, np.array([float(eta)]), N))
    return DecompositionParts(heat=heat, wave=wave, remainder_scaled=scaled,
                              remainder_value=R, order=N, total=heat + wave + scaled)


def first_nonzero_h_index(M, T):
    """Smallest l in [1, 10] with h_l(T) != 0, zeros judged against a
    derivative-scale threshold so exact zeros (e.g. M(T) = 0 makes h_1(T) = 0)
    are not confused with roundoff."""
    if M.is_zero():
        raise ValueError("kernel is identically zero")
    for l in range(1, 11):
        scale = kernel_c_norm(M, l, T)
        if abs(h_coeff(M, l).eval(T)) > 1e-12 * max(scale, 1e-300):
            return l
    raise RuntimeError("no nonzero h_l(T) found for l <= 10")


# ---------------------------------------------------------------------------
# flow tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowTable:
    """Propagator samples phi[j, i] for basis mode j at grid time t_i."""

    basis: object
    tgrid: np.ndarray
    phi: np.ndarray
    method: str
    kernel: str

    def __post_init__(self):
        self.tgrid.setflags(write=False)
        self.phi.setflags(write=False)

    @property
    def dt(self):
        return float(self.tgrid[1] - self.tgrid[0])

    @property
    def T(self):
        return float(self.tgrid[-1])


def _fine_steps(etas, T, n_steps):
    """Step count of the substepped grid that keeps every mode stable: n_steps
    times the least factor that brings eta_max dt to 1.9 or below."""
    return n_steps * max(1, math.ceil(float(etas[-1]) * (T / n_steps) / 1.9))


def build_flow_table(M, basis, T, n_steps, method="volterra"):
    """Tabulate all mode propagators on the uniform grid over [0, T].

    The time-stepping route automatically substeps so that eta*dt stays under
    the stability guard for every mode, then keeps the requested grid.  The
    kernel route sums DEFAULT_KM_TRUNCATION series terms; the decomposition
    route has order DEFAULT_DECOMP_ORDER.
    """
    etas = basis.eigenvalues
    tgrid = np.linspace(0.0, T, n_steps + 1)
    if method == "volterra":
        nf = _fine_steps(etas, T, n_steps)
        phi = volterra_modes(M, etas, T, nf)[::nf // n_steps].T.copy()
        tag = "volterra"
    elif method == "kernel_rep":
        phi = np.ones((basis.J, n_steps + 1))
        for i, t in enumerate(tgrid[1:], start=1):
            phi[:, i] = kernel_rep_profile(M, t, etas)
        tag = "kernel_rep"
    elif method == "decomposition":
        phi = np.ones((basis.J, n_steps + 1))
        for i, t in enumerate(tgrid[1:], start=1):
            heat, wave, _, scaled = _decomposition(M, t, etas, DEFAULT_DECOMP_ORDER)
            phi[:, i] = heat + wave + scaled
        tag = f"decomposition({DEFAULT_DECOMP_ORDER})"
    else:
        raise ValueError(f"unknown method {method!r}")
    return FlowTable(basis=basis, tgrid=tgrid, phi=phi, method=tag,
                     kernel=format_kernel(M))


def flow_apply(table, t_index, v):
    """Diagonal action of the propagator at grid time index on coefficients."""
    a = v.coeffs if isinstance(v, SpectralVec) else np.asarray(v, dtype=float)
    return SpectralVec(table.phi[: len(a), t_index] * a,
                       s=(v.s if isinstance(v, SpectralVec) else 0.0))


def flow_table_to_csv(table):
    """Render as CSV with header "j, eta_j, t_0...t_n"."""
    n = len(table.tgrid) - 1
    lines = ["j, eta_j, " + ", ".join(f"t_{i}" for i in range(n + 1))]
    for j in range(table.basis.J):
        vals = ", ".join(repr(float(v)) for v in table.phi[j])
        lines.append(f"{j + 1}, {float(table.basis.eigenvalues[j])!r}, {vals}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# forced evolution
# ---------------------------------------------------------------------------

def control_mode_projection(basis, mask):
    """Matrix B[j, ix]: coefficients of the indicator of mask column ix.

    Controls are piecewise constant per raster cell; their spatial profile on
    the basis grid is the cell indicator, projected here once.
    """
    B = np.zeros((basis.J, mask.n_x))
    wf = basis.funcs * basis.weights  # (J, n_x_basis)
    np.add.at(B.T, mask.columns_at(basis.x), wf.T)
    return B


def control_forcing(basis, mask, control, tgrid):
    """Mode forcing samples f[i, j] of a raster control (zero outside the mask)."""
    u = np.where(mask.cells, np.asarray(control, dtype=float), 0.0)
    B = control_mode_projection(basis, mask)
    return u[mask.rows_at(tgrid)] @ B.T


class RouteMismatchError(RuntimeError):
    """A forced replay misses the final state its moment solve predicts."""


def forced_solution(M, basis, y0, control, mask, T, n_steps):
    """Controlled trajectory, computed twice and cross-checked.

    Route (a) is the forced time stepper; route (b) is the superposition sum
    y(t) = phi(t) y0 + sum_k w_k phi(t - s_k) f(s_k) built from the propagator
    table (trapezoid weights).  Returns the route-(a) coefficient trajectory
    on the requested grid together with the max coefficient-space distance
    between the routes over 16 evenly spaced checkpoints.

    Returns
    -------
    traj : array (n_steps+1, J)
    discrepancy : float
    """
    etas = basis.eigenvalues
    phi = volterra_modes(M, etas, T, _fine_steps(etas, T, n_steps))
    return _replay(M, basis, y0, control, mask, T, n_steps, phi)


def _forced_run(M, basis, a0, control, mask, T, nf):
    """The forced stepper from coefficients a0 under a raster control on the
    grid of nf steps; returns the trajectory and the forcing, both (nf+1, J)."""
    f = control_forcing(basis, mask, control, np.linspace(0.0, T, nf + 1))
    return volterra_modes(M, basis.eigenvalues, T, nf, y0=a0, forcing=f), f


def _replay(M, basis, y0, control, mask, T, n_steps, phi):
    """``forced_solution`` given the unforced table phi (nf+1, J) of its
    substepped grid, for a caller that has already swept it."""
    nf = len(phi) - 1
    a0 = y0.coeffs if isinstance(y0, SpectralVec) else np.asarray(y0, dtype=float)
    fine, f = _forced_run(M, basis, a0, control, mask, T, nf)
    phi = phi.T  # (J, nf+1)

    dt = T / nf
    idxs = np.unique(np.linspace(0, nf, 17).astype(int))
    disc = 0.0
    for i in idxs[1:]:  # idxs[0] = 0
        w = np.full(i + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        duh = phi[:, i] * a0 + np.einsum("k,jk,kj->j", w, phi[:, i::-1], f[: i + 1])
        disc = max(disc, float(np.linalg.norm(fine[i] - duh)))
    return fine[::nf // n_steps], disc
