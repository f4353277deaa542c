import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memflow.flow import (
    QuadratureError,
    StepSizeError,
    _expm,
    _generator,
    _memory_recurrence,
    _scan,
    _state_space,
    build_flow_table,
    decomposition_mode,
    first_nonzero_h_index,
    kernel_rep_mode,
    kernel_rep_profile,
    remainder_bound,
    remainder_profile,
    volterra_influence,
    volterra_mode,
    volterra_modes,
)
from memflow.geometry import cylinder_mask, zigzag_mask
from memflow.kernels import ExpPolyFn, h_coeff, parse_kernel
from memflow.spectral import interval_basis

from dense_refs import forced_solution

ETA1 = math.pi**2


def tgrid(T=1.0, n=1000):
    return np.linspace(0.0, T, n + 1)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_pure_heat_mode():
    y = volterra_mode(ExpPolyFn.zero(), ETA1, tgrid())
    assert y[100] == pytest.approx(math.exp(-0.1 * ETA1), abs=5e-6)


def test_initial_condition(kernels4):
    for M in kernels4.values():
        y = volterra_mode(M, ETA1, tgrid(n=100))
        assert y[0] == 1.0


def test_step_size_rejection():
    with pytest.raises(StepSizeError):
        volterra_mode(ExpPolyFn.zero(), 1e4, tgrid(n=100))


def test_tgrid_validation():
    with pytest.raises(ValueError):
        volterra_mode(ExpPolyFn.zero(), 1.0, np.array([0.1, 0.2, 0.3]))


def test_entries_bounded(kernels4):
    for M in kernels4.values():
        y = volterra_modes(M, interval_basis(6, 24).eigenvalues, 2.0, 2500)
        assert np.all(np.isfinite(y))
        assert np.abs(y).max() < 10.0


# ---------------------------------------------------------------------------
# kernel representation
# ---------------------------------------------------------------------------

def test_kernel_rep_t_zero(kernels4):
    for M in kernels4.values():
        assert kernel_rep_mode(M, ETA1, 0.0) == 1.0


def test_kernel_rep_no_memory():
    assert kernel_rep_mode(ExpPolyFn.zero(), ETA1, 0.5) == pytest.approx(
        math.exp(-0.5 * ETA1), rel=1e-12)


def test_kernel_rep_profile_matches_scalar(kernels4):
    etas = interval_basis(4, 16).eigenvalues
    for M in kernels4.values():
        prof = kernel_rep_profile(M, 0.8, etas)
        for j, eta in enumerate(etas):
            assert prof[j] == pytest.approx(kernel_rep_mode(M, float(eta), 0.8),
                                            abs=1e-10)


def _kernel_rep_quad(M, eta, t):
    """Adaptive-quadrature reference for ``kernel_rep_mode``."""
    from scipy.integrate import quad
    from memflow.kernels import km_partial
    K = km_partial(M, 0, 40)
    val, _ = quad(lambda u: K.eval(t, u) * math.exp(-eta * u), 0.0, t,
                  epsabs=1e-12, epsrel=1e-11, limit=400)
    return math.exp(-eta * t) + val


def test_kernel_rep_mode_matches_quad(kernels4):
    etas = interval_basis(8, 32).eigenvalues
    for M in kernels4.values():
        for eta in etas:
            for t in (0.25, 0.5, 1.0):
                assert abs(kernel_rep_mode(M, float(eta), t)
                           - _kernel_rep_quad(M, float(eta), t)) <= 1e-12


def test_kernel_rep_mode_refines_oscillatory_kernels():
    # on the uncut panels the 12- and 16-point rules differ by up to 1.5e-10
    # (cos(45t)) and 7e-8 (cos(60t)); cut panels resolve both
    for text in ("cos(45*t)", "cos(60*t)"):
        M = parse_kernel(text)
        for eta in (math.pi**2, 10.0):
            for t in (1.0, 2.0):
                assert abs(kernel_rep_mode(M, eta, t)
                           - _kernel_rep_quad(M, eta, t)) <= 1e-12


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_kernel_rep_mode_check_allows_series_rounding():
    # the folded series kernel of this kernel carries rounding of ~1e-9 near
    # s = t, so the 12- and 16-point rules disagree past 1e-12: by 2.6e-12 at
    # t = 1, and at t = 1.25 by at least 1.7e-11 at every cut; the rounding
    # floors are 4.7e-11 and 4.4e-9 (quad's reference warns of this roundoff)
    M = parse_kernel("exp(-1*t) + t^4*exp(-2*t)")
    for t in (1.0, 1.25):
        assert abs(kernel_rep_mode(M, math.pi**2, t)
                   - _kernel_rep_quad(M, math.pi**2, t)) <= 1e-9


def test_kernel_rep_mode_unconverged_quadrature_raises():
    # 64-fold cut panels still miss this oscillation by about 2.4e-6
    with pytest.raises(QuadratureError, match="exceeds"):
        kernel_rep_mode(parse_kernel("cos(20000*t)"), 10.0, 1.0)


def test_nonfinite_series_integral_raises():
    # the series kernel of exp(800 t) overflows: both integrals read NaN
    with pytest.raises(QuadratureError, match="not finite"):
        kernel_rep_mode(parse_kernel("exp(800*t)"), 10.0, 1.0)


def test_volterra_vs_kernel_rep():
    M = parse_kernel("1")
    y = volterra_mode(M, ETA1, tgrid())
    v = kernel_rep_mode(M, ETA1, 0.5)
    assert abs(y[500] - v) <= max(1e-6, ETA1**2 * 1e-6 / 20.0)


def test_volterra_vs_kernel_rep_memory_exp():
    M = parse_kernel("exp(-1*t)")
    y = volterra_mode(M, ETA1, tgrid())
    v = kernel_rep_mode(M, ETA1, 1.0)
    assert abs(y[-1] - v) <= max(1e-6, ETA1**2 * 1e-6 / 20.0)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decomposition_refuses_t_zero():
    with pytest.raises(ValueError):
        decomposition_mode(parse_kernel("1"), ETA1, 0.0)
    with pytest.raises(ValueError):
        decomposition_mode(parse_kernel("1"), ETA1, 0.5, N=1)


def test_decomposition_wave_part_order_two():
    M = parse_kernel("1")
    d = decomposition_mode(M, ETA1, 0.5, N=2)
    assert d["wave"] == pytest.approx(-M.eval(0.5) / ETA1**2, rel=1e-12)


def test_decomposition_small_time_limit(kernels4):
    for M in kernels4.values():
        d = decomposition_mode(M, ETA1, 1e-5, N=4)
        assert d["total"] == pytest.approx(1.0, abs=1e-4)
        d2 = decomposition_mode(M, ETA1, 1e-7, N=4)
        assert d2["total"] == pytest.approx(1.0, abs=1e-6)


def test_decomposition_vs_volterra_sin():
    M = parse_kernel("sin(1*t)")
    eta = (2 * math.pi) ** 2
    n = 4000  # eta*dt stability
    y = volterra_mode(M, eta, tgrid(n=n))
    d = decomposition_mode(M, eta, 0.75, N=4)
    i = int(round(0.75 * n))
    assert abs(y[i] - d["total"]) <= max(1e-6, eta**2 * (1.0 / n) ** 2 / 20.0)


def test_residual_identity(kernels4):
    # (flow - heat - wave) * eta^(N+1) = remainder multiplier
    for M in kernels4.values():
        d = decomposition_mode(M, ETA1, 0.5, N=2)
        flow = kernel_rep_mode(M, ETA1, 0.5)
        resid = (flow - d["heat"] - d["wave"]) * ETA1**3
        assert resid == pytest.approx(d["remainder_value"], rel=1e-6, abs=1e-8)


def test_remainder_t_zero(kernels4):
    for M in kernels4.values():
        assert remainder_profile(M, 0.0, 2, [ETA1])[0] == 0.0


def test_remainder_bound_holds(kernels4):
    etas = interval_basis(32, 128).eigenvalues
    ts = np.linspace(0.1, 2.0, 8)
    for M in kernels4.values():
        for N in (2, 3, 4):
            bound = {t: remainder_bound(M, N, float(t)) for t in ts}
            for t in ts:
                R = remainder_profile(M, float(t), N, etas)
                assert np.abs(R).max() <= bound[t]


def test_remainder_bound_past_float_range_is_infinite():
    # kernel_c_norm is about 95 here, so exp(N (1 + t) c) overflows a float
    M = parse_kernel("exp(-1*t)*cos(3*t)")
    assert remainder_bound(M, 4, 1.0) == math.inf


def test_remainder_mode_convergence_check():
    val = decomposition_mode(parse_kernel("1"), ETA1, 0.5, N=2)["remainder_value"]
    assert np.isfinite(val)


def test_remainder_mode_unconverged_quadrature_raises():
    # 64-fold cut panels still miss this oscillation's second s-derivative
    with pytest.raises(QuadratureError, match="exceeds"):
        decomposition_mode(parse_kernel("cos(20000*t)"), 10.0, 1.0)


def test_remainder_mode_matches_quad_on_oscillation():
    # on the uncut panels the 12- and 16-point rules differ by about 2.6e-3
    # here, and the 12-point value is -9.747001; cut panels resolve it
    from scipy.integrate import quad
    from memflow.kernels import km_partial
    M = parse_kernel("cos(60*t)")
    K = km_partial(M, 2, 40)
    t, eta = 1.0, 10.0
    ref, _ = quad(lambda s: eta * math.exp(-eta * s) * K.eval(t, s), 0, t,
                  epsabs=1e-12, epsrel=1e-12, limit=500)
    assert abs(decomposition_mode(M, eta, t, N=2)["remainder_value"] - ref) <= 1e-10


def test_remainder_profile_matches_quad():
    from scipy.integrate import quad
    from memflow.kernels import km_partial
    M = parse_kernel("exp(-1*t)")
    K = km_partial(M, 2, 40)
    t, eta = 0.9, ETA1
    ref, _ = quad(lambda s: eta * math.exp(-eta * s) * K.eval(t, s), 0, t,
                  epsabs=1e-12, epsrel=1e-11, limit=300)
    assert remainder_profile(M, t, 2, [eta])[0] == pytest.approx(ref, rel=1e-9)


def test_wave_leading_term_envelope():
    # |flow(t, eta) + M(t)/eta^2| decays like eta^{-3} across modes
    M = parse_kernel("exp(-1*t)")
    t = 0.5
    etas = interval_basis(32, 128).eigenvalues[3:]
    flow = kernel_rep_profile(M, t, etas)
    resid = np.abs(flow + M.eval(t) / etas**2) * etas**3
    assert resid.max() / resid.min() < 25.0  # flat eta^3-normalized envelope


def test_first_nonzero_h_index(kernels4):
    # kernels that do not vanish at T give index 1
    assert first_nonzero_h_index(kernels4["one"], 1.0) == 1
    assert first_nonzero_h_index(kernels4["exp"], 1.0) == 1
    assert first_nonzero_h_index(kernels4["texp"], 1.0) == 1
    # sin vanishes at pi; the next coefficient takes over
    assert first_nonzero_h_index(kernels4["sin"], math.pi) == 2
    assert abs(h_coeff(kernels4["sin"], 2).eval(math.pi)) > 1e-3


def test_first_nonzero_h_rejects_zero_kernel():
    with pytest.raises(ValueError):
        first_nonzero_h_index(ExpPolyFn.zero(), 1.0)


# ---------------------------------------------------------------------------
# flow tables
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    return build_flow_table(parse_kernel("exp(-1*t)"), interval_basis(6, 24),
                            1.0, 500)


def test_table_initial_identity(table):
    assert np.all(table.phi[:, 0] == 1.0)


def test_table_methods_agree():
    b = interval_basis(3, 12)
    M = parse_kernel("1")
    tv = build_flow_table(M, b, 1.0, 200, method="volterra")
    tk = build_flow_table(M, b, 1.0, 200, method="kernel_rep")
    td = build_flow_table(M, b, 1.0, 200, method="decomposition")
    te = build_flow_table(M, b, 1.0, 200, method="exact")
    dt = 1.0 / 200
    tol = np.maximum(1e-6, (b.eigenvalues[:, None] * dt) ** 2 / 20.0)
    assert np.all(np.abs(tv.phi - tk.phi) <= tol)
    assert np.all(np.abs(tv.phi - te.phi) <= tol)
    assert np.abs(tk.phi - td.phi).max() < 1e-8
    assert np.abs(tk.phi - te.phi).max() < 1e-12
    assert np.all(te.phi[:, 0] == 1.0)


# ---------------------------------------------------------------------------
# the exact route
# ---------------------------------------------------------------------------

def _scipy_expm(X):
    from scipy.linalg import expm
    return np.array([expm(x) for x in X])


def _expm_errors(X):
    """Deviation of ``_expm`` from scipy's per matrix, relative to max |e^X|."""
    got, want = _expm(X), _scipy_expm(X)
    return np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))


def test_expm_matches_scipy_on_random_matrices():
    # 1-norms up to about 25, so up to three squarings.  Against 50-digit
    # values ``_expm`` is within 1e-15 on this batch, and scipy within 5e-13
    rng = np.random.default_rng(7)
    X = rng.standard_normal((24, 5, 5)) * np.geomspace(1e-3, 5.0, 24)[:, None, None]
    assert _expm_errors(X).max() < 1e-12
    assert np.abs(_expm(np.zeros((2, 3, 3))) - np.eye(3)).max() <= np.finfo(float).eps


@pytest.mark.parametrize("text", ["exp(-1*t)", "t^2*exp(-2*t) + cos(3*t)"])
def test_expm_matches_scipy_on_stiff_generators(text):
    # the mode generator at dt = 1, ||G||_1 from about 10 up to 1e4
    etas = interval_basis(8, 32).eigenvalues
    G = np.concatenate([_generator(parse_kernel(text), etas * scale) for scale in (1.0, 16.0)])
    norms = np.abs(G).sum(axis=1).max(axis=1)
    assert norms.min() < 20.0 and norms.max() > 1e4
    # both sides carry roundoff of about eps times the norm
    assert np.all(_expm_errors(G) < 1e-15 * norms)


def test_expm_matches_scipy_on_nilpotent_matrices():
    # strictly triangular: the series ends, e^X = sum_k X^k / k!
    X = np.triu(np.random.default_rng(8).standard_normal((6, 5, 5)) * 4.0, k=1)
    assert _expm_errors(X).max() < 1e-13
    terms = [np.broadcast_to(np.eye(5), X.shape)]
    for k in range(1, 5):
        terms.append(terms[-1] @ X / k)
    assert np.allclose(_expm(X), sum(terms), rtol=1e-13, atol=1e-13)


def _exp_kernel_propagator(a, etas, t):
    """phi(t) for M = exp(-a t): phi'' + (eta + a) phi' + (eta a + 1) phi = 0
    with phi(0) = 1, phi'(0) = -eta, over the roots r of its characteristic
    polynomial."""
    out = np.empty((len(etas), len(t)))
    for j, eta in enumerate(etas):
        r1, r2 = np.roots([1.0, eta + a, eta * a + 1.0]).astype(complex)
        out[j] = ((r1 + a) / (r1 - r2) * np.exp(r1 * t)
                  + (r2 + a) / (r2 - r1) * np.exp(r2 * t)).real
    return out


@pytest.mark.parametrize("a", [0.5, 1.0, 1.37])
def test_exact_table_matches_the_closed_form_of_exp(a):
    b = interval_basis(6, 24)
    table = build_flow_table(parse_kernel(f"exp(-{a!r}*t)"), b, 1.0, 40, method="exact")
    want = _exp_kernel_propagator(a, b.eigenvalues, table.tgrid)
    assert np.all(np.abs(table.phi - want) <= 1e-12 * np.maximum(np.abs(want), 1e-3))


@pytest.mark.parametrize("text, J, T, n_steps", [
    ("cos(60*t)", 4, 1.0, 4),  # the decomposition table is 3x off at mode 1, t = 1
    ("2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)", 8, 2.0, 8),
    ("0", 8, 1.0, 5),
    ("1", 8, 1.0, 5),
], ids=["cos60", "several-rates", "zero", "one"])
def test_exact_table_matches_the_checked_kernel_rep(text, J, T, n_steps):
    """No substeps at any step size: each entry matches the checked
    single-mode value to 1e-12 relative."""
    M, b = parse_kernel(text), interval_basis(J, 4 * J)
    table = build_flow_table(M, b, T, n_steps, method="exact")
    want = np.array([[kernel_rep_mode(M, float(eta), float(t)) for t in table.tgrid]
                     for eta in b.eigenvalues])
    assert np.all(np.abs(table.phi - want) <= 1e-12 * np.abs(want))


def test_table_substeps_high_modes():
    b = interval_basis(16, 64)
    t = build_flow_table(parse_kernel("1"), b, 1.0, 100)  # eta_16 dt >> 2
    assert t.phi.shape == (16, 101)
    assert abs(t.phi[15, 1]) < 1.0


def test_flow_self_adjoint(table, rng):
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    phi = table.phi[:, 77]
    assert float(np.dot(phi * u, v)) == pytest.approx(float(np.dot(u, phi * v)),
                                                      rel=1e-14)


# ---------------------------------------------------------------------------
# forced evolution
# ---------------------------------------------------------------------------

def test_influence_reproduces_forced_run(kernels4, rng):
    etas = interval_basis(4, 16).eigenvalues
    for M in kernels4.values():
        g = volterra_influence(M, etas, 0.7, 300)
        f = rng.standard_normal((301, 4))
        y = volterra_modes(M, etas, 0.7, 300, y0=np.zeros(4), forcing=f)
        pred = np.einsum("ij,ij->j", g, f)
        assert np.abs(y[-1] - pred).max() < 1e-14


def test_forced_solution_zero_control(table):
    b = table.basis
    mask = cylinder_mask(1.0, 50, 32)
    y0 = np.zeros(6)
    y0[0] = 1.0
    traj, disc = forced_solution(parse_kernel("exp(-1*t)"), b, y0,
                                 np.zeros((50, 32)), mask, 1.0, 500)
    assert np.allclose(traj[-1], table.phi[:, -1] * y0, atol=1e-12)
    assert disc < 1e-12


def test_forced_solution_pure_heat_decay():
    b = interval_basis(4, 16)
    mask = cylinder_mask(1.0, 50, 16)
    y0 = np.array([1.0, 0, 0, 0])
    traj, _ = forced_solution(ExpPolyFn.zero(), b, y0, np.zeros((50, 16)),
                              mask, 1.0, 500)
    assert traj[-1][0] == pytest.approx(math.exp(-ETA1), abs=1e-5)


def test_forced_solution_two_route_agreement(rng):
    b = interval_basis(6, 32)
    mask = zigzag_mask(0.2, 1.0, 50, 32)
    u = rng.standard_normal((50, 32))
    y0 = rng.standard_normal(6)
    traj, disc = forced_solution(parse_kernel("exp(-1*t)"), b, y0, u, mask,
                                 1.0, 1000)
    assert disc <= max(1e-5, 20.0 * (1.0 / 1000) ** 2)


def test_forced_solution_control_outside_mask_ignored(rng):
    b = interval_basis(4, 16)
    mask = cylinder_mask(1.0, 40, 16, x_lo=0.0, x_hi=0.5)
    u = rng.standard_normal((40, 16))
    u_masked = np.where(mask.cells, u, 0.0)
    y0 = rng.standard_normal(4)
    t1, _ = forced_solution(parse_kernel("1"), b, y0, u, mask, 1.0, 400)
    t2, _ = forced_solution(parse_kernel("1"), b, y0, u_masked, mask, 1.0, 400)
    assert np.array_equal(t1, t2)


def test_volterra_second_order_convergence():
    M = parse_kernel("exp(-1*t)")
    ref = kernel_rep_mode(M, ETA1, 1.0)
    errs = []
    for n in (250, 500, 1000):
        y = volterra_mode(M, ETA1, tgrid(n=n))
        errs.append(abs(y[-1] - ref))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 1.9 and order2 > 1.9


# ---------------------------------------------------------------------------
# memory recurrence against the direct history sum
# ---------------------------------------------------------------------------

def dense_modes(M, etas, T, n_steps, y0=None, forcing=None):
    """Forward stepper with the O(n^2 J) direct history sum (reference)."""
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    dt = T / n_steps
    J = len(etas)
    Mv = np.atleast_1d(np.asarray(M.eval(np.arange(n_steps + 1) * dt), dtype=float))
    y = np.zeros((n_steps + 1, J))
    y[0] = 1.0 if y0 is None else np.asarray(y0, dtype=float)
    f = np.zeros((n_steps + 1, J)) if forcing is None else np.asarray(forcing, dtype=float)
    a_diag = 1.0 + 0.5 * dt * etas + 0.25 * dt * dt * Mv[0]
    decay = 1.0 - 0.5 * dt * etas
    prev_Q = np.zeros(J)
    for i in range(1, n_steps + 1):
        hist = Mv[i - 1:0:-1] @ y[1:i] if i >= 2 else 0.0
        sigma = dt * (0.5 * Mv[i] * y[0] + hist)
        rhs = decay * y[i - 1] - 0.5 * dt * (prev_Q + sigma) \
            + 0.5 * dt * (f[i - 1] + f[i])
        y[i] = rhs / a_diag
        prev_Q = sigma + 0.5 * dt * Mv[0] * y[i]
    return y


def dense_influence(M, etas, T, n_steps):
    """Back-substitution with the O(n^2 J) direct history sum (reference)."""
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    dt = T / n_steps
    J = len(etas)
    n = n_steps
    Mv = np.atleast_1d(np.asarray(M.eval(np.arange(n + 1) * dt), dtype=float))
    a_diag = 1.0 + 0.5 * dt * etas + 0.25 * dt * dt * Mv[0]
    c1 = -(1.0 - 0.5 * dt * etas) + 0.5 * dt * dt * (0.5 * Mv[0] + Mv[1])
    lam = np.zeros((n + 1, J))
    lam[n] = 1.0 / a_diag
    for i in range(n - 1, 0, -1):
        acc = c1 * lam[i + 1]
        if i + 2 <= n:
            mwin = Mv[1:n - i] + Mv[2:n - i + 1]
            acc = acc + 0.5 * dt * dt * (mwin @ lam[i + 2:n + 1])
        lam[i] = -acc / a_diag
    g = np.zeros((n + 1, J))
    g[0] = 0.5 * dt * lam[1]
    g[1:n] = 0.5 * dt * (lam[1:n] + lam[2:n + 1])
    g[n] = 0.5 * dt * lam[n]
    return g


def _loop_scheme(M, etas, T, n_steps):
    dt = T / n_steps
    c, W, w = _memory_recurrence(M, dt)
    q0 = 0.25 * dt * dt * float(M.eval(0.0))
    a_diag = 1.0 + 0.5 * dt * etas + q0
    b_diag = 1.0 - 0.5 * dt * etas - q0
    return dt, a_diag, b_diag, q0, 0.5 * dt * dt * c, W, w[:, None]


def loop_modes(M, etas, T, n_steps, y0=None, forcing=None):
    """Forward stepper, one memory-recurrence step at a time (reference)."""
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    dt, a_diag, b_diag, q0, c, W, w = _loop_scheme(M, etas, T, n_steps)
    y = np.zeros((n_steps + 1, len(etas)))
    y[0] = 1.0 if y0 is None else np.asarray(y0, dtype=float)
    if forcing is None:
        fh = np.zeros((n_steps, len(etas)))
    else:
        f = np.asarray(forcing, dtype=float)
        fh = 0.5 * dt * (f[:-1] + f[1:])
    Z = w * (0.5 * y[0])
    s_prev = -q0 * y[0]
    for i in range(1, n_steps + 1):
        s = (c @ Z).real
        y[i] = yi = (b_diag * y[i - 1] - s_prev - s + fh[i - 1]) / a_diag
        s_prev = s
        Z = W @ Z + w * yi
    return y


def loop_influence(M, etas, T, n_steps):
    """Back-substitution, one memory-recurrence step at a time (reference)."""
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    dt, a_diag, b_diag, _, c, W, w = _loop_scheme(M, etas, T, n_steps)
    n = n_steps
    lam = np.zeros((n + 1, len(etas)))
    lam[n] = 1.0 / a_diag
    Z = np.zeros((len(c), len(etas)))
    u_next = np.zeros(len(etas))
    for i in range(n - 1, 0, -1):
        Z = W @ Z + w * lam[i + 1]
        u = (c @ Z).real
        lam[i] = (b_diag * lam[i + 1] - u_next - u) / a_diag
        u_next = u
    g = np.zeros((n + 1, len(etas)))
    g[0] = 0.5 * dt * lam[1]
    g[1:n] = 0.5 * dt * (lam[1:n] + lam[2:n + 1])
    g[n] = 0.5 * dt * lam[n]
    return g


RECURRENCE_KERNELS = [
    "exp(-1*t)",
    "exp(-1*t)*cos(3*t)",
    "exp(-0.5*t)*sin(2*t)",
    "exp(-2*t) + t*exp(-2*t)",   # one rate, two powers
    "t^2*exp(0.5*t)*cos(2*t)",
    "1",
    "0",
]


def _max_rel(x, ref):
    return np.abs(x - ref).max() / max(np.abs(ref).max(), 1e-300)


def _three_runs(stepper, influence, M, etas, T, n, y0, f):
    return (stepper(M, etas, T, n), stepper(M, etas, T, n, y0=y0, forcing=f),
            influence(M, etas, T, n))


@pytest.mark.parametrize("text", RECURRENCE_KERNELS)
def test_recurrence_matches_direct_sum(text):
    M = parse_kernel(text)
    etas = interval_basis(6, 24).eigenvalues
    T, n = 1.5, 600
    rng = np.random.default_rng(5)
    y0 = rng.standard_normal(6)
    f = rng.standard_normal((n + 1, 6))
    scan = _three_runs(volterra_modes, volterra_influence, M, etas, T, n, y0, f)
    for ref in (_three_runs(dense_modes, dense_influence, M, etas, T, n, y0, f),
                _three_runs(loop_modes, loop_influence, M, etas, T, n, y0, f)):
        for x, r in zip(scan, ref):
            assert _max_rel(x, r) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 63, 64, 65])
@pytest.mark.parametrize("text", RECURRENCE_KERNELS)
def test_scan_edge_grids(text, n):
    """Grids with fewer points than a block, and around exactly filled
    blocks: n + 1 = L^2 (forward) and n = L^2 (adjoint) at n = 15, 63.
    Also the scan of a generic state against the plain state recursion."""
    M = parse_kernel(text)
    T = 1.5
    etas = np.linspace(0.3, 1.9 * n / T, 5)
    rng = np.random.default_rng(n)
    y0 = rng.standard_normal(5)
    f = rng.standard_normal((n + 1, 5))
    scan = _three_runs(volterra_modes, volterra_influence, M, etas, T, n, y0, f)
    ref = _three_runs(loop_modes, loop_influence, M, etas, T, n, y0, f)
    for x, r in zip(scan, ref):
        assert x.shape == r.shape
        assert _max_rel(x, r) <= 1e-13

    _, _, A, e, _ = _state_space(M, etas, T, n)
    x0 = rng.standard_normal(e.shape)
    u = rng.standard_normal((n, 5))
    x, xf, ref_free, ref_forced = x0, x0, [x0[:, 0]], [x0[:, 0]]
    for i in range(n):
        x = np.einsum("jpq,jq->jp", A, x)
        xf = np.einsum("jpq,jq->jp", A, xf) + e * u[i][:, None]
        ref_free.append(x[:, 0])
        ref_forced.append(xf[:, 0])
    assert _max_rel(_scan(A, x0, n + 1), np.array(ref_free)) <= 1e-13
    assert _max_rel(_scan(A, x0, n + 1, e, u), np.array(ref_forced)) <= 1e-13


def test_stepper_takes_numpy_integer_steps():
    M = parse_kernel("exp(-1*t)")
    assert np.array_equal(volterra_modes(M, [1.0, 2.0], 1.0, np.int64(50)),
                          volterra_modes(M, [1.0, 2.0], 1.0, 50))
    assert np.array_equal(volterra_influence(M, [1.0, 2.0], 1.0, np.int64(50)),
                          volterra_influence(M, [1.0, 2.0], 1.0, 50))


@pytest.mark.parametrize("text", ["exp(-0.9*t)", "t^2*exp(0.5*t)*cos(2*t)"])
def test_scan_at_control_size(text):
    """J = 32 and n = 6000, the substepped grid of a control job."""
    M = parse_kernel(text)
    etas = interval_basis(32, 128).eigenvalues
    rng = np.random.default_rng(11)
    y0 = rng.standard_normal(32)
    f = rng.standard_normal((6001, 32))
    scan = _three_runs(volterra_modes, volterra_influence, M, etas, 1.0, 6000, y0, f)
    ref = _three_runs(loop_modes, loop_influence, M, etas, 1.0, 6000, y0, f)
    for x, r in zip(scan, ref):
        assert _max_rel(x, r) <= 1e-13


_SMALL_KERNEL = st.builds(
    lambda c, m, a, b, phase: ExpPolyFn.term(c, m, a, b, phase) + ExpPolyFn.term(1.0, 0, -1.0),
    st.floats(-2.0, 2.0), st.integers(0, 2), st.floats(-2.0, 0.5),
    st.floats(0.0, 3.0), st.sampled_from(["cos", "sin"]),
)


@settings(max_examples=25, deadline=None)
@given(M=_SMALL_KERNEL, seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
def test_stepper_linear_in_data(M, seed, alpha, beta):
    etas = interval_basis(4, 16).eigenvalues
    rng = np.random.default_rng(seed)
    y0a, y0b = rng.standard_normal((2, 4))
    fa, fb = rng.standard_normal((2, 201, 4))
    ya = volterra_modes(M, etas, 1.0, 200, y0=y0a, forcing=fa)
    yb = volterra_modes(M, etas, 1.0, 200, y0=y0b, forcing=fb)
    y = volterra_modes(M, etas, 1.0, 200, y0=alpha * y0a + beta * y0b,
                       forcing=alpha * fa + beta * fb)
    scale = abs(alpha) * np.abs(ya).max() + abs(beta) * np.abs(yb).max()
    assert np.abs(y - (alpha * ya + beta * yb)).max() <= 1e-12 * max(scale, 1e-300)


@settings(max_examples=25, deadline=None)
@given(M=_SMALL_KERNEL, seed=st.integers(0, 2**32 - 1))
def test_influence_adjoint_identity(M, seed):
    """y(T) = phi(T) y0 + sum_i g_i f_i for the discrete scheme."""
    etas = interval_basis(4, 16).eigenvalues
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(4)
    f = rng.standard_normal((201, 4))
    yT = volterra_modes(M, etas, 1.0, 200, y0=y0, forcing=f)[-1]
    phiT = volterra_modes(M, etas, 1.0, 200)[-1]
    g = volterra_influence(M, etas, 1.0, 200)
    terms = g * f
    scale = np.abs(phiT * y0) + np.abs(terms).sum(axis=0)
    assert np.all(np.abs(yT - (phiT * y0 + terms.sum(axis=0))) <= 1e-12 * scale)
