"""Per-mode propagators of the memory heat flow, by four routes.

In the eigenbasis the evolution decouples: each mode solves the scalar
integro-differential equation

    y'(t) = -eta y(t) - (M * y)(t) + f(t),   y(0) given,

where * is convolution on [0, t].  Routes implemented:

  * exact: M is an exponential polynomial, so it is the impulse response
    c^T e^{A t} b of a finite linear system (``kernels.realization``), and
    the mode with its memory states Z (M * y = c . Z, Z' = A Z + b y) is the
    linear ODE of the generator G = [[-eta, -c^T], [b, A]] (``_generator``).
    One step is E = e^{dt G} (``_expm``, Padé-13 with scaling and squaring)
    and phi(t_i) = e_0^T E^i e_0, exact at every step size,
  * time stepping (trapezoidal convolution quadrature, implicit in the stiff
    -eta y term; the update equation is linear in the new value and solved
    exactly), kept as the cross-check whose second order ``flow-check``
    verifies; it substeps itself where eta dt would leave its stable range.
    The quadrature's history sum runs on the same memory states by the
    exact recurrence Z <- W (Z + b v), W = e^{dt A} (``_expm``) of the
    kernel's realization (Lubich, Numer. Math. 52, 1988), so one step is a
    constant linear map per mode on K + 2 real states, K the size of A,
  * the integral representation  phi(t) = e^{-eta t} + int_0^t K(t,u) e^{-eta u} du
    with the series kernel K,
  * the order-N decomposition into a smoothing part, an instantaneous
    multiplier part, and a quadrature remainder.

A forcing that is constant on a row of length h steps the exact mode state
by x <- E x + F u, with [E F] the top block row of one exponential of the
augmented generator h [[G, e_0], [0, 0]] (``_row_step``; Van Loan, IEEE TAC
23, 1978).  The control reads only these row steps.

The exact route, the stepper, the control's influence rows and phi(T_hat)
are one blocked scan of their constant map (``_scan``): in blocks of
L ~ sqrt(n) steps, about sqrt(n) batched (J, P, P) products and a few
batched products over the table, instead of n Python-level steps or the
O(n^2 J) direct sum.  Every run is checked on its way out: a scan whose
values are not finite (the flow outgrew the float range) raises
NonFinitePropagatorError rather than hand on inf or NaN.

Consumers read the tables as follows (``build_flow_table``): ``probe-alpha``
and ``probe-ball`` read the exact table, and ``flow-check`` takes its order
study's reference from it; ``obsconst``, ``reconstruct`` and ``duality``
read the stepper table, and ``control`` the exact row steps.  The two
series routes are independent cross-checks: ``flow-check`` compares their
single-mode values with the stepper, and the three-way tests and the
benchmark's closed-form check compare their tables.

The two series routes share one quadrature, ``_panel_integral`` of
e^{-eta s} d^N/ds^N K(t, s) on geometric Gauss panels (N = 0 for the kernel
representation, N for the remainder R_N).  Single-mode values
(``kernel_rep_mode``, ``decomposition_mode``) carry one convergence check,
``_checked_integral``, and raise QuadratureError when it fails.  Tables
(``kernel_rep_profile``, ``remainder_profile`` and the flow tables built on
them) are not checked: a table build would pay the check's second kernel
pass at 16 nodes, and its cut panels, at every grid time (measured in
ROADMAP item 2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    SERIES_TERMS,
    h_coeff,
    kernel_c_norm,
    km_partial,
    p_coeff,
    realization,
)
from .spectral import gauss_legendre

__all__ = [
    "QuadratureError",
    "MultiplierIndexError",
    "NonFinitePropagatorError",
    "volterra_modes",
    "kernel_rep_mode",
    "kernel_rep_profile",
    "remainder_profile",
    "remainder_bound",
    "decomposition_mode",
    "first_nonzero_h_index",
    "FlowTable",
    "build_flow_table",
]

DEFAULT_DECOMP_ORDER = 4


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the achieved error estimate."""


class MultiplierIndexError(RuntimeError):
    """No multiplier coefficient h_l(T), l <= 10, is nonzero."""


class NonFinitePropagatorError(RuntimeError):
    """A propagator run holds inf or NaN: the flow outgrew the float range."""


# ---------------------------------------------------------------------------
# trapezoidal convolution-quadrature time stepping
# ---------------------------------------------------------------------------

def _state_space(M, etas, T, n_steps):
    """The trapezoid step with its memory recurrence as one linear map per mode.

    With the kernel's ``realization`` M(t) = c_M^T e^{A_M t} b_M, the history
    sums Z_i = sum_{d>=1} e^{d dt A_M} b_M v_{i-d} obey the exact recurrence
    Z_{i+1} = W (Z_i + b_M v_i), W = e^{dt A_M} (``_expm``), and
    sum_{d>=1} M(d dt) v_{i-d} = c_M . Z_i.  On the real state
    x_i = (y_i, s_i, Z_{i+1}) of size P = K + 2 (K the realization's size)
    one step of the scheme is x_i = A x_{i-1}, with
    a y_i = b y_{i-1} - s_{i-1} - s_i, s_i = (dt^2 / 2) c_M . Z_i and
    Z_{i+1} = W Z_i + w y_i, w = W b_M.  Returns q0 = dt^2 M(0) / 4,
    A (J, P, P) and w.  The map is stable for eta dt <= 2;
    ``volterra_modes`` substeps to keep it so.
    """
    dt = T / n_steps
    A_M, b_M, c = realization(M)
    W = _expm(dt * A_M)
    w = W @ b_M
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
    return q0, A, w


def _scan(A, x0, n_out):
    """First components y_i of x_i = A x_{i-1}, 0 <= i < n_out.

    A two-level prefix scan (Blelloch 1990) of the constant map.  Within a
    block of L ~ sqrt(n_out) positions, y_{bL+k} = (e_0^T A^k) X_b; from
    block to block the state X_b = x_{bL} is carried by A^L.  L is a power
    of two, so the rows e_0^T A^k are built by doubling, which leaves A^L,
    and a run costs about log2(L) + n_out/L batched (J, P, P) products and
    one batched matrix product over the table; no (n_out, J, P) array is
    formed.

    A (J, P, P), x0 (J, P); returns (n_out, J), or raises
    NonFinitePropagatorError when an entry is not finite.
    """
    J, P, _ = A.shape
    L = 1 << (int(n_out).bit_length() // 2)
    nb = -(-n_out // L)
    rows = np.zeros((J, L, P))
    rows[:, 0, 0] = 1.0
    Ap, m = A, 1  # Ap = A^m
    while m < L:
        k = min(m, L - m)
        rows[:, m:m + k] = rows[:, :k] @ Ap
        Ap, m = Ap @ Ap, 2 * m
    X = np.empty((J, nb, P))
    X[:, 0] = x0
    for b in range(1, nb):
        X[:, b] = np.einsum("jpq,jq->jp", Ap, X[:, b - 1])
    y = (X @ rows.transpose(0, 2, 1)).reshape(J, nb * L)[:, :n_out].T
    if not np.isfinite(y).all():
        raise NonFinitePropagatorError(
            f"propagator run is not finite ({np.isnan(y).sum()} NaN and "
            f"{np.isinf(y).sum()} infinite of {y.size} entries)")
    return y


def volterra_modes(M, etas, T, n_steps):
    """March all modes at once from y_0 = 1 on the uniform grid t_i = i*T/n_steps.

    Trapezoid rule in the memory integral, implicit in the -eta y term:

        a y_i = b y_{i-1} - s_{i-1} - s_i,

    with a = 1 + eta dt/2 + dt^2 M(0)/4, b = 1 - eta dt/2 - dt^2 M(0)/4 and
    s_i = (dt^2/2) sum_{d>=1} M(d dt) v_{i-d} (v_0 = y_0/2, v_k = y_k; at
    i = 1 the s_0 term is -dt^2 M(0) y_0/4, which makes b y_0 - s_0 the
    plain 1 - eta dt/2 decay).  The history sum follows the exact recurrence
    Z <- e^{dt A} (Z + b v) on the K memory states of the kernel's
    ``realization`` (A, b, c), so one step is a constant linear map on K + 2
    states (``_state_space``), and the steps run as a blocked scan of that
    map (``_scan``): about sqrt(n) batched (J, K+2, K+2) products and a few
    batched products over the table, instead of n steps or the O(n^2 J)
    direct sum.

    The scheme is stable for eta dt <= 2, so the run steps at dt / k with
    k the least factor that brings max(eta) dt / k to 1.9 or below, and
    keeps every k-th sample.  Returns the propagator samples (n_steps+1, J)
    of the modes of eigenvalues ``etas`` under the memory kernel M.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    k = max(1, math.ceil(float(np.max(etas)) * (T / n_steps) / 1.9))
    q0, A, w = _state_space(M, etas, T, n_steps * k)
    x0 = np.tile(np.concatenate([[1.0, -q0], 0.5 * w]), (len(etas), 1))
    return _scan(A, x0, n_steps * k + 1)[::k]


# ---------------------------------------------------------------------------
# the exact route: the generator of (y, memory states) and its exponential
# ---------------------------------------------------------------------------

# Padé-13 numerator coefficients and the 1-norm up to which the [13/13]
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(X):
    """e^X for a stack X (..., n, n) of real matrices: the [13/13] Padé
    approximant with scaling and squaring (Higham 2005), each matrix scaled
    by its own power of two 2^s, ||X / 2^s||_1 <= theta_13, and squared back
    s times."""
    norm = np.abs(X).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    X = X / (2.0 ** s)[..., None, None]
    b, eye = _PADE13, np.eye(X.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        E[s > k] = E[s > k] @ E[s > k]
    return E


def _generator(M, etas):
    """G (J, P, P) of the mode ODE on (y, Z): y' = -eta y - c . Z and
    Z' = A Z + b y, with (A, b, c) the kernel's ``realization`` of size K;
    P = K + 1."""
    A, b, c = realization(M)
    G = np.zeros((len(etas), len(b) + 1, len(b) + 1))
    G[:, 0, 0] = -etas
    G[:, 0, 1:] = -c
    G[:, 1:, 0] = b
    G[:, 1:, 1:] = A
    return G


def _row_step(M, etas, lengths):
    """Exact steps across rows of the given lengths h under a forcing u that
    is constant on the row: the mode state x = (y, Z) of ``_generator``
    moves by x <- E x + F u, with [E F] the top block row of
    e^{h [[G, e_0], [0, 0]]} (Van Loan, IEEE TAC 23, 1978), all lengths in
    one batched ``_expm``.  Returns E (n, J, P, P) and F (n, J, P)."""
    G = _generator(M, etas)
    J, P, _ = G.shape
    X = np.zeros((J, P + 1, P + 1))
    X[:, :P, :P] = G
    X[:, 0, P] = 1.0
    V = _expm(np.asarray(lengths, dtype=float)[:, None, None, None] * X)
    return V[..., :P, :P], V[..., :P, P]


# ---------------------------------------------------------------------------
# the series-kernel quadrature and the integral representation
# ---------------------------------------------------------------------------

@functools.cache
def _unit_gauss_panels(n_gauss, split):
    """Read-only nodes and weights of ``_gauss_panels`` on [0, 1]."""
    edges = np.concatenate([[0.0], 2.0 ** (np.arange(36) - 35.0)])
    edges = np.interp(np.arange(36 * split + 1) / split, np.arange(37), edges)
    xg, wg = gauss_legendre(n_gauss)
    h = 0.5 * np.diff(edges)[:, None]
    nodes, weights = (edges[:-1, None] + h * (xg + 1.0)).ravel(), (h * wg).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_panels(t, n_gauss, split=1):
    """Geometrically refined Gauss-Legendre nodes on [0, t], the panels on
    [0, 1] scaled by t, each cut into ``split`` equal panels.

    The 36 geometric levels toward 0 resolve boundary layers e^{-eta s}
    for eta up to ~2^36 / t with a fixed node set shared by all modes.
    """
    nodes, weights = _unit_gauss_panels(n_gauss, split)
    return t * nodes, t * weights


def _panel_integral(K, t, etas, n_gauss=12, split=1):
    """int_0^t e^{-eta s} K(t, s) ds for every mode, on the geometric Gauss
    panels of ``_gauss_panels`` (one set of kernel samples for all modes)."""
    s, w = _gauss_panels(t, n_gauss, split)
    return np.exp(-np.outer(etas, s)) @ (w * K.eval(t, s))


def _checked_integral(K, t, eta):
    """``_panel_integral`` for one mode, with a convergence check.

    Integrates at 12 and at 16 nodes per panel, cutting every panel in
    2, 4, ..., 64 until the two integrals agree to max(1e-12, 1e-11 |integral|)
    plus the rounding the series kernel itself carries (machine epsilon times
    the integral of ``K.eval_abs``; no node count removes it).  Past 64 raise
    QuadratureError carrying the achieved error estimate, and at once when
    either integral is not finite.
    """
    rounding = None
    for split in (1, 2, 4, 8, 16, 32, 64):
        coarse, fine = (float(_panel_integral(K, t, [eta], n, split)[0]) for n in (12, 16))
        if not (math.isfinite(coarse) and math.isfinite(fine)):
            raise QuadratureError(f"series-kernel integral is not finite: {coarse!r} at 12 "
                                  f"nodes, {fine!r} at 16 nodes per panel")
        err, tol = abs(fine - coarse), max(1e-12, 1e-11 * abs(fine))
        if err > tol and rounding is None:  # one more kernel pass, only here
            s, w = _gauss_panels(t, 16)
            rounding = np.finfo(float).eps * float(w @ (K.eval_abs(t, s) * np.exp(-eta * s)))
        if err <= tol + (rounding or 0.0):
            return fine
    raise QuadratureError(f"series-kernel quadrature error estimate "
                          f"{err:.3e} exceeds {tol + rounding:.3e}")


def kernel_rep_profile(M, t, etas):
    """phi(t) for an array of modes via the integral representation.

    Shares one set of kernel samples (SERIES_TERMS series terms)
    across all modes; the quadrature grid is geometrically refined toward
    u = 0 so the exponential boundary layer of every mode is resolved.
    Unchecked, for tables; ``kernel_rep_mode`` is the checked value.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    return np.exp(-etas * t) + _panel_integral(km_partial(M, 0, SERIES_TERMS), t, etas)


def kernel_rep_mode(M, eta, t):
    """Single-mode propagator value via the kernel representation, with the
    convergence check of ``_checked_integral`` (QuadratureError when 64-fold
    cut panels do not converge)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(-eta * t) + _checked_integral(km_partial(M, 0, SERIES_TERMS), t, eta)


# ---------------------------------------------------------------------------
# decomposition route
# ---------------------------------------------------------------------------

def remainder_profile(M, t, N, etas):
    """Remainder multiplier values R_N(t, eta) for an array of modes.

    R_N(t, eta) = int_0^t eta e^{-eta s} (d/ds)^N K(t, s) ds on the series
    kernel of SERIES_TERMS terms, by the kernel representation's
    ``_panel_integral``.  Unchecked, for tables; ``decomposition_mode`` is
    the checked value.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    return etas * _panel_integral(km_partial(M, N, SERIES_TERMS), t, etas)


def remainder_bound(M, N, t):
    """A priori bound  e^t {exp[N (1+t) sum_{k<=N} sup_{[0,t]}|M^(k)|] - 1}
    on |R_N(t, .)|, for a scalar t (a float) or for each t of an array (an
    array of its shape); the sups come from one ``kernel_c_norm`` call over
    every t.  exp(x) - 1 is taken by expm1, so a small x keeps its digits;
    past the float range the bound is inf: valid, but vacuous."""
    ts = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        bound = np.exp(ts) * np.expm1(N * (1.0 + ts) * kernel_c_norm(M, N, ts))
    return float(bound) if ts.ndim == 0 else bound


def _coefficients(M, N, t):
    """p_l(t) and h_l(t), l < N, each an array of shape (N, *shape of t)."""
    return (np.array([p_coeff(M, l).eval(t) for l in range(N)]),
            np.array([h_coeff(M, l).eval(t) for l in range(N)]))


def _decomposition(t, etas, pl, hl, R):
    """Heat part, wave part and scaled remainder of the order-N decomposition
    at time t, one entry per mode, given p_l(t) and h_l(t) for l < N and the
    remainder values R."""
    N = len(pl)
    inv_powers = etas[:, None] ** -(np.arange(N)[None, :] + 1.0)
    return (np.exp(-etas * t) * (1.0 + inv_powers @ pl), inv_powers @ hl,
            R * etas ** -(N + 1.0))


def decomposition_mode(M, eta, t, N=DEFAULT_DECOMP_ORDER):
    """Order-N decomposition of the mode propagator at time t > 0.

    Returns a dict of its five parts: "heat", the smoothing part
    e^{-eta t} (1 + sum_l p_l(t) eta^{-l-1}); "wave", the multiplier part
    sum_l h_l(t) eta^{-l-1}; "remainder_value", R_N(t, eta);
    "remainder_scaled", R_N(t, eta) eta^{-N-1}; and "total",
    heat + wave + remainder_scaled.

    The remainder R_N(t, eta) is checked by ``_checked_integral``
    (QuadratureError when 64-fold cut panels do not converge); the
    decomposition table reads the unchecked ``remainder_profile``.  Refuses
    t = 0 (the remainder quadrature degenerates there); callers probe the
    t -> 0 limit instead.
    """
    if t <= 0:
        raise ValueError("decomposition_mode requires t > 0")
    if N < 2:
        raise ValueError("N must be >= 2")
    R = float(eta) * _checked_integral(km_partial(M, N, SERIES_TERMS), t, eta)
    heat, wave, scaled = (float(v[0]) for v in
                          _decomposition(t, np.array([float(eta)]), *_coefficients(M, N, t), R))
    return {"heat": heat, "wave": wave, "remainder_scaled": scaled,
            "remainder_value": R, "total": heat + wave + scaled}


def first_nonzero_h_index(M, T):
    """Smallest l in [1, 10] with h_l(T) != 0, zeros judged against a
    derivative-scale threshold so exact zeros (e.g. M(T) = 0 makes h_1(T) = 0)
    are not confused with roundoff; MultiplierIndexError when there is none."""
    if M.is_zero():
        raise ValueError("kernel is identically zero")
    for l in range(1, 11):
        scale = kernel_c_norm(M, l, T)
        if abs(h_coeff(M, l).eval(T)) > 1e-12 * max(scale, 1e-300):
            return l
    raise MultiplierIndexError("no nonzero h_l(T) found for l <= 10")


# ---------------------------------------------------------------------------
# flow tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowTable:
    """Propagator samples phi[j, i] for basis mode j at grid time t_i."""

    basis: object
    tgrid: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        self.tgrid.setflags(write=False)
        self.phi.setflags(write=False)

    @property
    def dt(self):
        return float(self.tgrid[1] - self.tgrid[0])

    @property
    def T(self):
        return float(self.tgrid[-1])


def build_flow_table(M, basis, T, n_steps, method="volterra"):
    """Tabulate all mode propagators on the uniform grid over [0, T].

    Four routes, chosen by ``method``:

      * "exact": phi(t_i) = e_0^T E^i e_0 with E = e^{dt G} the exponential of
        the mode generator on (y, memory states) (``_generator``, from the
        kernel's ``realization``), run by ``_scan``; exact up to roundoff at
        every step size, with no substeps.  Read by
        ``probe-alpha`` and ``probe-ball`` and by the order study of
        ``flow-check`` (one step to T);
      * "volterra": the trapezoid stepper of ``volterra_modes``.  Read by
        ``obsconst``, ``reconstruct`` and ``duality``;
      * "kernel_rep": the kernel representation on SERIES_TERMS series terms;
      * "decomposition": the order-DEFAULT_DECOMP_ORDER decomposition, each
        p_l and h_l evaluated once on the whole grid.

    The two series routes are unchecked tables, kept as independent
    cross-checks of the others (the three-way tests and the benchmark's
    closed-form check); ``flow-check`` compares their checked single-mode
    values.  ``control`` reads no table: it steps the exact row map of
    ``_row_step`` once per mask row.
    """
    etas = basis.eigenvalues
    tgrid = np.linspace(0.0, T, n_steps + 1)
    if method == "exact":
        E = _expm((T / n_steps) * _generator(M, etas))
        x0 = np.zeros(E.shape[:2])
        x0[:, 0] = 1.0
        phi = _scan(E, x0, n_steps + 1).T.copy()
    elif method == "volterra":
        phi = volterra_modes(M, etas, T, n_steps).T.copy()
    else:
        phi = np.ones((basis.J, n_steps + 1))
        if method == "decomposition":
            pl, hl = _coefficients(M, DEFAULT_DECOMP_ORDER, tgrid)
        elif method != "kernel_rep":
            raise ValueError(f"unknown method {method!r}")
        for i, t in enumerate(tgrid[1:], start=1):
            if method == "kernel_rep":
                phi[:, i] = kernel_rep_profile(M, t, etas)
            else:
                R = remainder_profile(M, t, DEFAULT_DECOMP_ORDER, etas)
                heat, wave, scaled = _decomposition(t, etas, pl[:, i], hl[:, i], R)
                phi[:, i] = heat + wave + scaled
    return FlowTable(basis=basis, tgrid=tgrid, phi=phi)

