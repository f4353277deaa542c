import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memflow.flow import (
    QuadratureError,
    _expm,
    _generator,
    _row_step,
    _scan,
    _state_space,
    build_flow_table,
    decomposition_mode,
    first_nonzero_h_index,
    kernel_rep_mode,
    remainder_bound,
    remainder_profile,
    volterra_modes,
)
from memflow.geometry import cylinder_mask, zigzag_mask
from memflow.kernels import ExpPolyFn, h_coeff, parse_kernel, realization
from memflow.spectral import interval_basis

from memflow.inverse_control import _influence_rows, _replay

from dense_refs import forced_solution, influence_rows

ETA1 = math.pi**2


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_pure_heat_mode():
    y = volterra_modes(ExpPolyFn.zero(), [ETA1], 1.0, 1000)[:, 0]
    assert y[100] == pytest.approx(math.exp(-0.1 * ETA1), abs=5e-6)


def test_initial_condition(kernels4):
    for M in kernels4.values():
        y = volterra_modes(M, [ETA1], 1.0, 100)[:, 0]
        assert y[0] == 1.0


def test_coarse_grid_returns_the_substepped_run():
    """eta dt = 100 on the requested grid: the stepper runs at dt / 53, where
    eta dt <= 1.9, and returns every 53rd sample of that run."""
    for M in (ExpPolyFn.zero(), parse_kernel("exp(-1*t)")):
        y = volterra_modes(M, [1e4], 1.0, 100)
        assert np.array_equal(y, volterra_modes(M, [1e4], 1.0, 5300)[::53])


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


def _eval_counts(monkeypatch):
    """Counts of ``BivariateKernel.eval`` and ``eval_abs`` calls from now on."""
    from memflow.kernels import BivariateKernel
    counts = {"eval": 0, "eval_abs": 0}
    for name in counts:
        def spy(self, t, s, _name=name, _fn=getattr(BivariateKernel, name)):
            counts[_name] += 1
            return _fn(self, t, s)
        monkeypatch.setattr(BivariateKernel, name, spy)
    return counts


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
@pytest.mark.parametrize("text, ts", [
    ("cos(45*t)", (1.0, 2.0)),
    ("cos(60*t)", (1.0, 2.0)),
    ("exp(-1*t) + t^4*exp(-2*t)", (1.0, 1.25)),
], ids=["cos45", "cos60", "series-rounding"])
def test_series_modes_of_an_array_equal_each_scalar_call(text, ts, monkeypatch):
    """On an array of modes both series routes return, bit for bit, each
    mode's scalar value, while the kernel is sampled only as often as the
    slowest mode needs.  On the cosines the low modes stop at later splits
    than the high ones; on the last kernel the rounding allowance decides
    at t = 1.25 (``test_kernel_rep_mode_check_allows_series_rounding``)."""
    M = parse_kernel(text)
    etas = np.array([ETA1, 10.0, 40.0, 300.0, 3000.0])
    counts = _eval_counts(monkeypatch)
    for t in ts:
        single = []
        for eta in etas.tolist():
            counts["eval"] = counts["eval_abs"] = 0
            single.append((kernel_rep_mode(M, eta, t), counts["eval"], counts["eval_abs"]))
        counts["eval"] = counts["eval_abs"] = 0
        batch = kernel_rep_mode(M, etas, t)
        assert batch.tobytes() == np.array([v for v, _, _ in single]).tobytes()
        assert counts["eval"] == max(n for _, n, _ in single)
        assert counts["eval_abs"] == max(n for _, _, n in single)
        dec = decomposition_mode(M, etas[::-1].reshape(1, 5), t)
        for key, values in dec.items():
            assert values.shape == (1, 5)
            assert values.tobytes() == np.array(
                [decomposition_mode(M, eta, t)[key] for eta in etas[::-1].tolist()]).tobytes()
    if text == "cos(60*t)":
        assert len({n for _, n, _ in single}) > 1  # the modes stop at different splits
    if text.startswith("exp"):
        assert single[0][2] == 1  # eta = pi^2 needed its rounding allowance


def test_series_modes_keep_their_scalar_types():
    M = parse_kernel("exp(-1*t)")
    assert type(kernel_rep_mode(M, ETA1, 0.5)) is float
    assert all(type(v) is float for v in decomposition_mode(M, ETA1, 0.5).values())
    assert kernel_rep_mode(M, [ETA1], 0.5).shape == (1,)


@pytest.mark.parametrize("etas", [[1e3, 10.0], [10.0, 1e3]])
def test_one_unconverged_mode_of_an_array_raises(etas):
    # eta = 1e3 converges on cos(20000 t) at t = 1, eta = 10 does not
    M = parse_kernel("cos(20000*t)")
    assert math.isfinite(kernel_rep_mode(M, 1e3, 1.0))
    with pytest.raises(QuadratureError, match="exceeds"):
        kernel_rep_mode(M, np.array(etas), 1.0)
    with pytest.raises(QuadratureError, match="exceeds"):
        decomposition_mode(M, np.array(etas), 1.0)


def test_nonfinite_series_integral_raises():
    # the series kernel of exp(800 t) overflows: both integrals read NaN
    with pytest.raises(QuadratureError, match="not finite"):
        kernel_rep_mode(parse_kernel("exp(800*t)"), 10.0, 1.0)


def test_volterra_vs_kernel_rep():
    M = parse_kernel("1")
    y = volterra_modes(M, [ETA1], 1.0, 1000)[:, 0]
    v = kernel_rep_mode(M, ETA1, 0.5)
    assert abs(y[500] - v) <= max(1e-6, ETA1**2 * 1e-6 / 20.0)


def test_volterra_vs_kernel_rep_memory_exp():
    M = parse_kernel("exp(-1*t)")
    y = volterra_modes(M, [ETA1], 1.0, 1000)[:, 0]
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
    n = 4000
    y = volterra_modes(M, [eta], 1.0, n)[:, 0]
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


def test_remainder_bound_keeps_the_digits_of_a_small_exponent():
    # sup|M| = sup|M'| = 1e-12 on [0, 1], so x = N (1 + t) c = 4e-12 and
    # exp(x) - 1 would lose 5 digits to cancellation
    M = parse_kernel("1e-12*exp(-1*t)")
    assert remainder_bound(M, 1, 1.0) == pytest.approx(math.e * math.expm1(4e-12),
                                                       rel=1e-14, abs=0.0)


def test_remainder_bound_over_an_array_of_t(kernels4):
    ts = np.array([2.0, 0.1, 0.7, 0.1])
    for M in kernels4.values():
        bounds = remainder_bound(M, 3, ts)
        assert bounds.shape == ts.shape
        for t, b in zip(ts, bounds):
            assert b == pytest.approx(remainder_bound(M, 3, float(t)), rel=1e-12)


def test_remainder_bound_table_evaluates_each_order_four_times(monkeypatch):
    """The sups behind the bound at ten t take at most four array
    evaluations per derivative order k <= N, whatever the number of t."""
    calls = []
    evaluate = ExpPolyFn.eval
    monkeypatch.setattr(ExpPolyFn, "eval", lambda f, t: calls.append(1) or evaluate(f, t))
    M = parse_kernel("exp(-1*t)*cos(3*t) + t^2*exp(-0.5*t)")
    remainder_bound(M, 4, np.linspace(0.1, 1.0, 10))
    assert len(calls) <= 4 * (4 + 1)


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
    flow = kernel_rep_mode(M, etas, t)
    resid = np.abs(flow + M.eval(t) / etas**2) * etas**3
    assert resid.max() / resid.min() < 25.0  # flat eta^3-normalized envelope


def test_first_nonzero_h_index(kernels4):
    # kernels that do not vanish at T give index 1
    assert first_nonzero_h_index(kernels4["one"], 1.0) == 1
    assert first_nonzero_h_index(kernels4["exp"], 1.0) == 1
    assert first_nonzero_h_index(kernels4["texp"], 1.0) == 1
    # h_1(1) = -e^-30 is small against the sup of M on [0, 1], not against
    # its own term
    assert first_nonzero_h_index(parse_kernel("exp(-30*t)"), 1.0) == 1
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


@pytest.mark.parametrize("text", ["exp(-1*t)", "cos(60*t)",
                                  "exp(-1.3*t)*cos(2.4*t) + 0.7*t*exp(-2.1*t)"],
                         ids=["exp", "cos60", "two-rate"])
def test_series_table_columns_are_the_checked_values(text):
    """Each column of a series table is, bit for bit, the route's checked
    call at that grid time on all the modes."""
    M, b = parse_kernel(text), interval_basis(5, 20)
    tk = build_flow_table(M, b, 1.0, 6, method="kernel_rep")
    td = build_flow_table(M, b, 1.0, 6, method="decomposition")
    assert np.all(tk.phi[:, 0] == 1.0) and np.all(td.phi[:, 0] == 1.0)
    for i, t in enumerate(tk.tgrid[1:].tolist(), start=1):
        assert tk.phi[:, i].tobytes() == kernel_rep_mode(M, b.eigenvalues, t).tobytes()
        assert td.phi[:, i].tobytes() == decomposition_mode(M, b.eigenvalues, t)["total"].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["kernel_rep", "decomposition"])
@pytest.mark.parametrize("text, match", [("cos(20000*t)", "exceeds"),
                                         ("exp(800*t)", "not finite")],
                         ids=["unresolved", "overflow"])
def test_series_table_on_an_unresolved_kernel_raises(text, match, method):
    """A series table holds only values that pass the route's check: on a
    kernel the panels do not resolve, or whose series kernel overflows, the
    build raises instead of returning wrong or non-finite entries."""
    with pytest.raises(QuadratureError, match=match):
        build_flow_table(parse_kernel(text), interval_basis(2, 8), 1.0, 4, method=method)


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
    ("cos(60*t)", 4, 1.0, 4),
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
# forced evolution: the exact row steps
# ---------------------------------------------------------------------------

def _lib_row_run(M, basis, y0, u, mask, T_hat):
    """y(T_hat) of the library's control route: the row steps of the control
    operator and its forced replay."""
    op, steps, _ = _influence_rows(M, basis, mask, T_hat)
    f = np.where(mask.cells, u, 0.0)[: len(op.P)] @ op.F.T
    return _replay(steps, np.asarray(y0, dtype=float), f), op, steps


@pytest.mark.parametrize("text", ["exp(-1*t)", "exp(-1.3*t)*cos(2.4*t) + 0.7*t*exp(-2.1*t)",
                                  "2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)", "0"])
def test_row_step_matches_scipy_expm(text):
    """[E F] is the top block row of scipy's expm of h [[G, e_0], [0, 0]]
    at two row lengths, from slow to stiff modes (eta h up to 5e3), within
    the roundoff that both sides carry: against 50-digit mpmath, ``_expm``
    is within about eps times the 1-norm and scipy within about 10 eps
    times it."""
    M = parse_kernel(text)
    etas = interval_basis(32, 128).eigenvalues
    E, F = _row_step(M, etas, (0.008, 0.5))
    G = _generator(M, etas)
    P = G.shape[1]
    X = np.zeros((32, P + 1, P + 1))
    X[:, :P, :P] = G
    X[:, 0, P] = 1.0
    for k, h in enumerate((0.008, 0.5)):
        V = _scipy_expm(h * X)
        got = np.concatenate([E[k], F[k][..., None]], axis=-1)
        dev = np.abs(got - V[:, :P]).max(axis=(1, 2)) / np.abs(V).max(axis=(1, 2))
        assert np.all(dev < 5e-15 * np.maximum(np.abs(h * X).sum(axis=1).max(axis=1), 1.0))


def test_row_step_pure_heat_closed_form():
    """Without memory a row steps y by e^{-eta h} y + (1 - e^{-eta h}) / eta u,
    per mode to the relative roundoff of the scaling and squaring, about
    eps eta h (eta h up to 505 here)."""
    etas = interval_basis(16, 64).eigenvalues
    h = np.array([0.01, 0.2])
    E, F = _row_step(ExpPolyFn.zero(), etas, h)
    assert E.shape == (2, 16, 1, 1) and F.shape == (2, 16, 1)
    eta_h = np.outer(h, etas)
    tol = 1e-14 * np.maximum(eta_h, 1.0)
    assert np.all(np.abs(E[..., 0, 0] / np.exp(-eta_h) - 1.0) <= tol)
    assert np.all(np.abs(F[..., 0] * etas / -np.expm1(-eta_h) - 1.0) <= tol)


def test_influence_reproduces_forced_run(rng):
    """The library's influence rows and forced replay (``_row_step`` and
    ``_scan``, the last row cut at T_hat or stretched to it) agree with the
    scipy per-row loops of ``dense_refs``, real and complex rates alike."""
    b = interval_basis(8, 48)
    mask = zigzag_mask(0.2, 1.0, 60, 48)
    for text in ("exp(-1*t)", "exp(-0.5*t)*sin(2*t) + exp(-1*t)*cos(3*t)"):
        M = parse_kernel(text)
        for T_hat in (1.0, 0.93, 1.1):
            u = rng.standard_normal((60, 48))
            y0 = rng.standard_normal(8)
            y, op, _ = _lib_row_run(M, b, y0, u, mask, T_hat)
            ref = forced_solution(M, b, y0, u, mask, T_hat)[-1]
            assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()
            K = influence_rows(M, b, mask, T_hat)
            assert np.abs(op.P - K).max() <= 1e-13 * np.abs(K).max()


def test_forced_solution_zero_control():
    b = interval_basis(6, 24)
    M = parse_kernel("exp(-1*t)")
    mask = cylinder_mask(1.0, 50, 32)
    y0 = np.zeros(6)
    y0[0] = 1.0
    traj = forced_solution(M, b, y0, np.zeros((50, 32)), mask, 1.0)
    phi = build_flow_table(M, b, 1.0, 50, method="exact").phi
    assert np.allclose(traj, (phi * y0[:, None]).T, rtol=0.0, atol=1e-13)


def test_forced_solution_pure_heat_decay():
    b = interval_basis(4, 16)
    mask = cylinder_mask(1.0, 50, 16)
    y0 = np.array([1.0, 0, 0, 0])
    traj = forced_solution(ExpPolyFn.zero(), b, y0, np.zeros((50, 16)), mask, 1.0)
    assert traj[-1][0] == pytest.approx(math.exp(-ETA1), rel=1e-12)


def test_forced_solution_two_route_agreement(rng):
    """The scipy row loop and the library's row route agree, with a memory
    kernel and without."""
    b = interval_basis(6, 32)
    mask = zigzag_mask(0.2, 1.0, 50, 32)
    u = rng.standard_normal((50, 32))
    y0 = rng.standard_normal(6)
    for M in (parse_kernel("exp(-1*t)"), ExpPolyFn.zero()):
        ref = forced_solution(M, b, y0, u, mask, 1.0)[-1]
        y, _, _ = _lib_row_run(M, b, y0, u, mask, 1.0)
        assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()


def test_forced_solution_control_outside_mask_ignored(rng):
    b = interval_basis(4, 16)
    mask = cylinder_mask(1.0, 40, 16, x_lo=0.0, x_hi=0.5)
    u = rng.standard_normal((40, 16))
    u_masked = np.where(mask.cells, u, 0.0)
    y0 = rng.standard_normal(4)
    t1 = forced_solution(parse_kernel("1"), b, y0, u, mask, 1.0)
    t2 = forced_solution(parse_kernel("1"), b, y0, u_masked, mask, 1.0)
    assert np.array_equal(t1, t2)


def test_volterra_second_order_convergence():
    M = parse_kernel("exp(-1*t)")
    ref = kernel_rep_mode(M, ETA1, 1.0)
    errs = []
    for n in (250, 500, 1000):
        y = volterra_modes(M, [ETA1], 1.0, n)[:, 0]
        errs.append(abs(y[-1] - ref))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 1.9 and order2 > 1.9


# ---------------------------------------------------------------------------
# memory recurrence against the direct history sum
# ---------------------------------------------------------------------------

def dense_modes(M, etas, T, n_steps):
    """Forward stepper from y_0 = 1 with the O(n^2 J) direct history sum
    (reference)."""
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    dt = T / n_steps
    J = len(etas)
    Mv = np.atleast_1d(np.asarray(M.eval(np.arange(n_steps + 1) * dt), dtype=float))
    y = np.zeros((n_steps + 1, J))
    y[0] = 1.0
    a_diag = 1.0 + 0.5 * dt * etas + 0.25 * dt * dt * Mv[0]
    decay = 1.0 - 0.5 * dt * etas
    prev_Q = np.zeros(J)
    for i in range(1, n_steps + 1):
        hist = Mv[i - 1:0:-1] @ y[1:i] if i >= 2 else 0.0
        sigma = dt * (0.5 * Mv[i] * y[0] + hist)
        y[i] = (decay * y[i - 1] - 0.5 * dt * (prev_Q + sigma)) / a_diag
        prev_Q = sigma + 0.5 * dt * Mv[0] * y[i]
    return y


def closed_form_recurrence(M, dt):
    """(c, W, w) expanded from the stored rows of M(t) = Re sum_z e^{z t}
    sum_p C[z, p] t^p, each row cut after its top power: the history sums
    Z[z, p]_i = sum_{d>=1} (d dt)^p e^{z d dt} v_{i-d} obey
    Z_{i+1} = W (Z_i + e v_i) with W[p, q] = C(p, q) dt^(p-q) e^{z dt}
    (q <= p) on the block of rate z, e the first state of each block, so
    that sum_{d>=1} M(d dt) v_{i-d} = Re(c . Z_i) and w = W e (reference)."""
    rows = [(z, row[:np.flatnonzero(row)[-1] + 1]) for z, row in zip(M.rates, M.C)]
    blocks = [np.exp(complex(z) * dt) * np.array(
        [[math.comb(p, q) * dt ** (p - q) if q <= p else 0.0 for q in range(len(row))]
         for p in range(len(row))]) for z, row in rows]
    K = sum(len(row) for _, row in rows)
    W, e, k = np.zeros((K, K), dtype=complex), np.zeros(K), 0
    for block in blocks:
        W[k:k + len(block), k:k + len(block)] = block
        e[k], k = 1.0, k + len(block)
    c = np.concatenate([row for _, row in rows] or [np.zeros(0)])
    return c, W, W @ e


def loop_modes(M, etas, T, n_steps):
    """Forward stepper from y_0 = 1, one step of the closed-form memory
    recurrence at a time, on complex states (reference)."""
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    dt = T / n_steps
    c, W, w = closed_form_recurrence(M, dt)
    q0 = 0.25 * dt * dt * float(M.eval(0.0))
    a_diag = 1.0 + 0.5 * dt * etas + q0
    b_diag = 1.0 - 0.5 * dt * etas - q0
    c, w = 0.5 * dt * dt * c, w[:, None]
    y = np.ones((n_steps + 1, len(etas)))
    Z = w * (0.5 * y[0])
    s_prev = -q0 * y[0]
    for i in range(1, n_steps + 1):
        s = (c @ Z).real
        y[i] = yi = (b_diag * y[i - 1] - s_prev - s) / a_diag
        s_prev = s
        Z = W @ Z + w * yi
    return y


RECURRENCE_KERNELS = [
    "exp(-1*t)",
    "exp(-1*t)*cos(3*t)",
    "exp(-0.5*t)*sin(2*t)",
    "exp(-2*t) + t*exp(-2*t)",   # one rate, two powers
    "t^2*exp(0.5*t)*cos(2*t)",
    "exp(-1*t) + t^4*exp(-2*t)",  # two rates, a size-5 block
    "2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)",
    "1",
    "0",
]


def _max_rel(x, ref):
    return np.abs(x - ref).max() / max(np.abs(ref).max(), 1e-300)


@pytest.mark.parametrize("n", [600, 4])
@pytest.mark.parametrize("text", RECURRENCE_KERNELS)
def test_stepper_memory_step_is_the_exponential_of_the_realization(text, n):
    """The memory block W of the stepper map at dt = 1/n is e^{dt A} of the
    kernel's realization: the closed form C(p, q) dt^(p-q) e^{z dt}, split
    into real and imaginary parts as the realization is, and scipy's expm."""
    from scipy.linalg import expm
    M, dt = parse_kernel(text), 1.0 / n
    _, A, w = _state_space(M, np.array([1.0, 50.0]), 1.0, n)
    W = A[:, 2:, 2:] - w[:, None] * A[:, 0, None, 2:]  # the step's y_i term taken out
    _, ref, _ = closed_form_recurrence(M, dt)
    if M.rates.dtype.kind == "c":
        ref = np.block([[ref.real, -ref.imag], [ref.imag, ref.real]])
    for want in (ref.real, expm(dt * realization(M)[0])):
        assert np.abs(W - want).max(initial=0.0) <= 1e-14 * max(np.abs(want).max(initial=0.0), 1.0)


@pytest.mark.parametrize("text", RECURRENCE_KERNELS)
def test_recurrence_matches_direct_sum(text):
    M = parse_kernel(text)
    etas = interval_basis(6, 24).eigenvalues
    y = volterra_modes(M, etas, 1.5, 600)
    for ref in (dense_modes(M, etas, 1.5, 600), loop_modes(M, etas, 1.5, 600)):
        assert _max_rel(y, ref) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 63, 64, 65])
@pytest.mark.parametrize("text", RECURRENCE_KERNELS)
def test_scan_edge_grids(text, n):
    """Grids with fewer points than a block, and around exactly filled
    blocks (n + 1 = L^2 at n = 15, 63), on the raw grid of the stepper map
    (at n = 15 the top eta dt rounds just past 1.9, so ``volterra_modes``
    would substep).  Also the scan of a generic state against the plain
    state recursion."""
    M = parse_kernel(text)
    T = 1.5
    etas = np.linspace(0.3, 1.9 * n / T, 5)
    q0, A, w = _state_space(M, etas, T, n)
    y = _scan(A, np.tile(np.concatenate([[1.0, -q0], 0.5 * w]), (5, 1)), n + 1)
    ref = loop_modes(M, etas, T, n)
    assert y.shape == ref.shape
    assert _max_rel(y, ref) <= 1e-13

    x0 = np.random.default_rng(n).standard_normal((5, A.shape[1]))
    x, ref_free = x0, [x0[:, 0]]
    for i in range(n):
        x = np.einsum("jpq,jq->jp", A, x)
        ref_free.append(x[:, 0])
    assert _max_rel(_scan(A, x0, n + 1), np.array(ref_free)) <= 1e-13


def test_stepper_takes_numpy_integer_steps():
    M = parse_kernel("exp(-1*t)")
    assert np.array_equal(volterra_modes(M, [1.0, 2.0], 1.0, np.int64(50)),
                          volterra_modes(M, [1.0, 2.0], 1.0, 50))


@pytest.mark.parametrize("text", ["exp(-0.9*t)", "t^2*exp(0.5*t)*cos(2*t)"])
def test_scan_at_control_size(text):
    """J = 32 and n = 6000, the substepped grid of a stepper table at the
    benchmark's control and reconstruction sizes (n_t = 1000)."""
    M = parse_kernel(text)
    etas = interval_basis(32, 128).eigenvalues
    assert _max_rel(volterra_modes(M, etas, 1.0, 6000), loop_modes(M, etas, 1.0, 6000)) <= 1e-13


_SMALL_KERNEL = st.builds(
    lambda c, m, a, b, phase: ExpPolyFn.term(c, m, a, b, phase) + ExpPolyFn.term(1.0, 0, -1.0),
    st.floats(-2.0, 2.0), st.integers(0, 2), st.floats(-2.0, 0.5),
    st.floats(0.0, 3.0), st.sampled_from(["cos", "sin"]),
)


@settings(max_examples=25, deadline=None)
@given(M=_SMALL_KERNEL, seed=st.integers(0, 2**32 - 1), T_hat=st.floats(0.01, 1.3))
def test_influence_adjoint_identity(M, seed, T_hat):
    """y(T_hat) = phi(T_hat) y0 + sum_r K_r f_r for the exact row steps: the
    forced replay, the unforced flow and the influence rows of the control
    operator agree, and phi(T_hat) is the one-step exact table's."""
    b = interval_basis(4, 16)
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(4)
    op, steps, lengths = _influence_rows(M, b, cylinder_mask(1.0, 40, 16), T_hat)
    f = rng.standard_normal((len(lengths), 4))
    yT = _replay(steps, y0, f)
    phiT = _replay(steps, np.ones(4), np.zeros_like(f))
    terms = op.P * f
    scale = np.abs(phiT * y0) + np.abs(terms).sum(axis=0)
    assert np.all(np.abs(yT - (phiT * y0 + terms.sum(axis=0))) <= 1e-12 * scale)
    exact = build_flow_table(M, b, T_hat, 1, method="exact").phi[:, 1]
    assert np.abs(phiT - exact).max() <= 1e-12 * np.abs(exact).max()
