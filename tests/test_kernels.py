import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from memflow.kernels import (
    BivariateKernel,
    ExpPolyFn,
    KernelParseError,
    _eval_compiled,
    _max_abs,
    _pascal,
    _s_derivative,
    conv_power,
    format_kernel,
    h_coeff,
    kernel_c_norm,
    km_partial,
    p_coeff,
    parse_kernel,
    realization,
)


def conv_quadrature(f, g, t):
    val, _ = quad(lambda u: f.eval(t - u) * g.eval(u), 0.0, t,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


# ---------------------------------------------------------------------------
# evaluation and derivatives
# ---------------------------------------------------------------------------

def test_eval_constant():
    assert parse_kernel("1").eval(3.7) == 1.0


def test_eval_power_at_origin():
    assert parse_kernel("t*exp(-1*t)").eval(0.0) == 0.0


def test_eval_sine_identity():
    assert parse_kernel("sin(1*t)").eval(math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_derivative_power():
    d = parse_kernel("t^2").derivative(1)
    ts = np.linspace(0, 3, 7)
    assert np.allclose(d.eval(ts), 2 * ts)


def test_derivative_product_rule():
    f = parse_kernel("exp(0.7*t)*sin(2*t)")
    d = f.derivative(1)
    ts = np.linspace(0, 2, 9)
    want = 0.7 * np.exp(0.7 * ts) * np.sin(2 * ts) + 2 * np.exp(0.7 * ts) * np.cos(2 * ts)
    assert np.allclose(d.eval(ts), want, atol=1e-13)


def test_second_derivative_sine_origin():
    assert parse_kernel("sin(1*t)").derivative(2).eval(0.0) == pytest.approx(0.0, abs=1e-15)


def test_derivative_matches_finite_differences(kernels4):
    h = 1e-5
    for f in kernels4.values():
        d = f.derivative(1)
        for t in (0.3, 1.1):
            fd = (f.eval(t + h) - f.eval(t - h)) / (2 * h)
            assert d.eval(t) == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_ones():
    c = parse_kernel("1").convolve(parse_kernel("1"))
    ts = np.linspace(0, 2, 11)
    assert np.allclose(c.eval(ts), ts)


def test_convolve_resonant_exponentials():
    f = parse_kernel("exp(-0.8*t)")
    c = f.convolve(f)
    for t in (0.1, 0.5, 1.0, 2.0):
        assert c.eval(t) == pytest.approx(t * math.exp(-0.8 * t), rel=1e-12)
        assert c.eval(t) == pytest.approx(conv_quadrature(f, f, t), abs=1e-12)


@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_conv_power_exponential_closed_form(j):
    f = parse_kernel("exp(-0.8*t)")
    c = conv_power(f, j)
    for t in (0.5, 1.5):
        want = t ** (j - 1) * math.exp(-0.8 * t) / math.factorial(j - 1)
        assert c.eval(t) == pytest.approx(want, rel=1e-11)


def test_conv_power_of_one():
    assert conv_power(parse_kernel("1"), 0).is_zero()
    assert conv_power(parse_kernel("1"), 1).eval(0.3) == 1.0
    c3 = conv_power(parse_kernel("1"), 3)
    ts = np.linspace(0, 2, 9)
    assert np.allclose(c3.eval(ts), ts**2 / 2)
    assert c3.eval(1.0) == pytest.approx(conv_quadrature(
        parse_kernel("1"), conv_power(parse_kernel("1"), 2), 1.0), abs=1e-12)


def test_convolve_cross_pairs_vs_quadrature(kernels4):
    ks = list(kernels4.values())
    for i, f in enumerate(ks):
        for g in ks[i:]:
            c = f.convolve(g)
            for t in (0.1, 0.5, 1.0, 2.0):
                assert abs(c.eval(t) - conv_quadrature(f, g, t)) < 1e-10


_RATES = st.sampled_from([round(x, 2) for x in np.linspace(-1.5, 1.0, 11)])
_FREQS = st.sampled_from([0.0] + [round(x, 2) for x in np.linspace(0.25, 3.0, 12)])


@settings(max_examples=25, deadline=None)
@given(
    a1=_RATES, b1=_FREQS, m1=st.integers(0, 2),
    a2=_RATES, b2=_FREQS, m2=st.integers(0, 2),
    phase1=st.sampled_from(["cos", "sin"]), phase2=st.sampled_from(["cos", "sin"]),
)
def test_convolution_agrees_with_quadrature(a1, b1, m1, a2, b2, m2, phase1, phase2):
    f = ExpPolyFn.term(1.0, m1, a1, b1, phase1) + ExpPolyFn.term(0.5, 0, a2, 0.0, "cos")
    g = ExpPolyFn.term(-0.7, m2, a2, b2, phase2)
    if f.is_zero() or g.is_zero():
        return
    c = f.convolve(g)
    for t in (0.1, 0.5, 1.0, 2.0):
        assert abs(c.eval(t) - conv_quadrature(f, g, t)) < 1e-10


def test_convolution_leibniz_rule(kernels4, rng):
    # d/dt (f*g) = f(0) g + f' * g
    ts = np.linspace(0.05, 2.0, 16)
    ks = list(kernels4.values())
    for _ in range(4):
        f = ks[rng.integers(len(ks))]
        g = ks[rng.integers(len(ks))]
        lhs = f.convolve(g).derivative(1)
        rhs = f.derivative(1).convolve(g) + g * f.eval(0.0)
        assert np.max(np.abs(lhs.eval(ts) - rhs.eval(ts))) < 1e-10


def test_pointwise_product():
    f = parse_kernel("exp(-0.5*t)*cos(2*t)")
    g = parse_kernel("t*sin(1*t)")
    p = f * g
    ts = np.linspace(0, 2, 33)
    assert np.allclose(p.eval(ts), f.eval(ts) * g.eval(ts), atol=1e-13)


# ---------------------------------------------------------------------------
# decomposition coefficients
# ---------------------------------------------------------------------------

def test_h0_identically_zero(kernels4):
    for M in kernels4.values():
        assert h_coeff(M, 0).is_zero()


def test_h1_is_minus_kernel(kernels4):
    ts = np.linspace(0, 2, 100)
    for M in kernels4.values():
        assert np.max(np.abs(h_coeff(M, 1).eval(ts) + M.eval(ts))) < 1e-12


def test_p0_closed_form(kernels4):
    ts = np.linspace(0, 2, 100)
    for M in kernels4.values():
        assert np.max(np.abs(p_coeff(M, 0).eval(ts) - M.eval(0.0) * ts)) < 1e-12


def test_p0_vanishes_for_sine(kernels4):
    assert p_coeff(kernels4["sin"], 0).is_zero()


def test_p1_closed_form(kernels4):
    ts = np.linspace(0, 2, 100)
    for M in kernels4.values():
        want = (M.eval(0.0) - M.derivative(1).eval(0.0) * ts
                + 0.5 * M.eval(0.0) ** 2 * ts**2)
        assert np.max(np.abs(p_coeff(M, 1).eval(ts) - want)) < 1e-12


def test_p_h_origin_identity(kernels4):
    for M in kernels4.values():
        for l in range(7):
            assert abs(p_coeff(M, l).eval(0.0) + h_coeff(M, l).eval(0.0)) < 1e-12


def test_h2_matches_definition_numerically():
    # brute force: h_2 = C(2,2) d^2/dt^2 (M*0) + C(2,1) d/dt (M) + C(2,0) M*M,
    # evaluated with numerical convolution and finite differences
    M = parse_kernel("1")
    t = 1.0
    mm = conv_quadrature(M, M, t)
    want = 2 * 0.0 + mm  # (-1)^2 [ C(2,1) dM/dt + C(2,0) (M*M) ]; dM/dt = 0
    assert h_coeff(M, 2).eval(t) == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# series kernel partial sums
# ---------------------------------------------------------------------------

def test_km_first_term_constant_kernel():
    K = km_partial(parse_kernel("3"), 0, 1)
    assert K.eval(1.0, 0.5) == pytest.approx(-0.5 * 3.0, rel=1e-14)


def test_km_vanishes_at_s_zero(kernels4):
    for M in kernels4.values():
        K = km_partial(M, 0, 20)
        assert K.eval(1.3, 0.0) == 0.0


def test_km_truncation_consistency(kernels4):
    # the routes sum 40 terms; 20 more change the value only at rounding level
    extra = ("exp(-0.8668*t) + 0.7431*t*exp(-2.2246*t)", "exp(-1*t) + t^4*exp(-2*t)")
    for M in list(kernels4.values()) + [parse_kernel(text) for text in extra]:
        for N in (0, 4):
            K40, K60 = BivariateKernel(M, N, 40), BivariateKernel(M, N, 60)
            for t, s in ((1.0, 0.5), (2.0, 1.7), (0.5, 0.1), (2.0, 2.0)):
                diff = abs(K40.eval(t, s) - K60.eval(t, s))
                assert diff <= 128 * np.finfo(float).eps * K60.eval_abs(t, s)


def test_km_derivative_consistent_with_finite_difference():
    M = parse_kernel("exp(-1*t)")
    K0 = km_partial(M, 0, 40)
    K1 = km_partial(M, 1, 40)
    h = 1e-6
    t, s = 1.2, 0.6
    fd = (K0.eval(t, s + h) - K0.eval(t, s - h)) / (2 * h)
    assert K1.eval(t, s) == pytest.approx(fd, rel=1e-7)


# ---------------------------------------------------------------------------
# sup norms
# ---------------------------------------------------------------------------

def test_c_norm_constant():
    assert kernel_c_norm(parse_kernel("1"), 2, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_c_norm_exponential():
    assert kernel_c_norm(parse_kernel("exp(-1*t)"), 1, 2.0) == pytest.approx(2.0, rel=1e-9)


def test_c_norm_sine():
    assert kernel_c_norm(parse_kernel("sin(1*t)"), 0, 3.0) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("text, lo, hi, sup", [
    ("t*exp(-1*t)", 0.0, 3.0, math.exp(-1.0)),          # interior, at t = 1
    ("t*exp(-1*t)", 0.0, 0.7, 0.7 * math.exp(-0.7)),    # at the right end
    # |f| at the trough where tan(2t) = -1/2
    ("exp(-1*t)*cos(2*t)", 1.0, 2.0,
     2.0 / math.sqrt(5.0) * math.exp(-(math.pi - math.atan(0.5)) / 2.0)),
])
def test_max_abs_to_roundoff_with_array_evaluations(text, lo, hi, sup, monkeypatch):
    sizes = []
    evaluate = ExpPolyFn.eval

    def counted(self, t):
        sizes.append(np.size(t))
        return evaluate(self, t)

    monkeypatch.setattr(ExpPolyFn, "eval", counted)
    assert _max_abs(parse_kernel(text), lo, hi) == pytest.approx(sup, rel=4e-16)
    assert len(sizes) <= 4 and sum(n > 1000 for n in sizes) == 1


@pytest.mark.parametrize("text, hi, sup", [
    ("t^2 + -1*t", 1.0, 0.25),  # f' = 0 exactly on the sample t = 0.5
    # 1 - (t - 0.4)^4: f'' = 0 at the zero of f', which is the sample 0.4 on
    # [0, 0.8]; the Newton step leaves its bracket and is not taken
    ("-1*t^4 + 1.6*t^3 + -0.96*t^2 + 0.256*t + 0.9744", 0.8, 1.0),
    ("-1*t^4 + 1.6*t^3 + -0.96*t^2 + 0.256*t + 0.9744", 1.0, 1.0),
    # 1 - (t - 0.5)^4: f' = f'' = 0 exactly at 0.5, a Newton step of 0/0
    ("-1*t^4 + 2*t^3 + -1.5*t^2 + 0.5*t + 0.9375", 1.0, 1.0),
    ("0", 1.0, 0.0),
    ("1", 1.0, 1.0),
])
def test_max_abs_at_degenerate_critical_points(text, hi, sup):
    assert _max_abs(parse_kernel(text), 0.0, hi) == pytest.approx(sup, rel=1e-12, abs=0.0)


def _resampled_max_abs(f, lo, hi):
    """Reference sup |f| on [lo, hi]: 1024 samples, then three passes that
    resample the bracket around the best sample as densely."""
    best = 0.0
    for _ in range(4):
        xs = np.linspace(lo, hi, 1025)
        vals = np.abs(f.eval(xs))
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, 1024)]
    return best


@pytest.mark.parametrize("text", [
    "t*exp(-1*t)", "exp(-1*t)*cos(3*t)", "t^2*exp(0.5*t)*cos(2*t)",
    "exp(-1*t) + t^4*exp(-2*t)", "1 + -0.5*t + 0.3*t^2*sin(7*t)",
])
def test_max_abs_over_many_right_ends(text):
    """One call over right ends given unsorted and with a repeat gives, at
    every end and every derivative order, the sup of a separate resampling
    of [0, h]."""
    hs = np.array([1.5, 0.3, 2.0, 0.3, 0.77, 1.0])
    for k in range(4):
        f = parse_kernel(text).derivative(k)
        got = _max_abs(f, 0.0, hs)
        assert got.shape == hs.shape and got[1] == got[3]
        for h, g in zip(hs, got):
            assert g == pytest.approx(_resampled_max_abs(f, 0.0, h), rel=1e-12)


def test_c_norm_over_an_array_of_t_matches_each_t():
    hs = np.array([[0.5, 2.0], [0.1, 0.5]])
    norms = kernel_c_norm(parse_kernel("exp(-1*t)*sin(4*t)"), 3, hs)
    assert norms.shape == hs.shape
    for h, n in zip(hs.ravel(), norms.ravel()):
        assert n == pytest.approx(kernel_c_norm(parse_kernel("exp(-1*t)*sin(4*t)"), 3, h),
                                  rel=1e-12)
    assert type(kernel_c_norm(parse_kernel("1"), 2, 1.0)) is float
    with pytest.raises(ValueError):
        kernel_c_norm(parse_kernel("1"), 2, [1.0, 0.0])


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "1",
    "0",
    "exp(-1*t)",
    "t^2*exp(0.5*t)*cos(2*t)",
    "3*sin(2*t) + -1*t",
    "-t + 2.5e-1*exp(1*t)",
    "t*exp(-0.5*t)",
    # '+' exponent signs, as the printer writes coefficients of 1e16 and up
    "2e+16*t*exp(-1.0*t)",
    "1e+3*exp(-1*t)",
])
def test_parse_format_round_trip(text):
    f = parse_kernel(text)
    g = parse_kernel(format_kernel(f))
    ts = np.linspace(0, 2, 64)
    assert np.allclose(f.eval(ts), g.eval(ts), atol=1e-14)


@pytest.mark.parametrize("bad", ["", "t^", "exp(t^2)", "cos(2*t)*sin(1*t)*cos(1*t)",
                                 "2**t", "spam", "t^2.5",
                                 # non-finite numbers
                                 "1e400", "-1e400*t", "exp(1e400*t)", "cos(-1e400*t)",
                                 "1e200*1e200", "exp(1e308*t)*exp(1e308*t)"])
def test_parse_errors(bad):
    with pytest.raises(KernelParseError):
        parse_kernel(bad)


def test_canonical_merges_terms():
    f = ExpPolyFn.term(1.0, 1, -0.5, 0.0) + ExpPolyFn.term(2.0, 1, -0.5, 0.0)
    assert f.rates.tolist() == [-0.5]
    assert f.C.tolist() == [[0.0, 3.0]]


def test_negative_frequency_folded():
    f = ExpPolyFn.term(1.0, 0, 0.0, -2.0, "sin")
    g = ExpPolyFn.term(-1.0, 0, 0.0, 2.0, "sin")
    ts = np.linspace(0, 2, 16)
    assert np.allclose(f.eval(ts), g.eval(ts))
    assert f.rates.tolist() == g.rates.tolist() == [2j]
    assert f.C.tolist() == g.C.tolist() == [[1j]]


def test_stored_form_rows():
    f = parse_kernel("3*t*exp(-1*t)*sin(2*t) + exp(-1*t)*cos(2*t) + 2 + -1*exp(-1*t)*cos(-2*t)")
    # the two cos terms cancel exactly; rows sorted by (Re z, Im z)
    assert f.rates.tolist() == [-1 + 2j, 0.0]
    assert f.C.tolist() == [[0.0, -3j], [2.0, 0.0]]
    assert not f.rates.flags.writeable and not f.C.flags.writeable
    with pytest.raises(AttributeError):
        f.rates = f.rates
    # the cancellation rule applies to the cos and the sin coefficients alike
    noisy = ExpPolyFn([(1.0, 0, 0.0, 2.0, "cos"), (1e-16, 0, 0.0, 2.0, "sin"),
                       (1e-16, 1, 0.0, 2.0, "cos")])
    assert noisy.C.tolist() == [[1.0]]


# ---------------------------------------------------------------------------
# stored form and per-kernel memo
# ---------------------------------------------------------------------------

def per_term_eval(terms, t):
    """Term-by-term sum of c t^m e^{a t} trig(b t): the reference evaluator."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for c, m, a, b, phase in terms:
        trig = np.cos if phase == "cos" else np.sin
        out = out + c * t**m * np.exp(a * t) * trig(b * t)
    return out


def per_term_scale(terms, t):
    """Sum of the term magnitudes |c| t^m e^{a t}: the scale of the rounding."""
    t = np.asarray(t, dtype=float)
    return sum(abs(c) * t**m * np.exp(a * t) for c, m, a, _, _ in terms) + 0.0 * t


def assert_compiled_eval_matches(terms, f, ts):
    got, want = f.eval(ts), per_term_eval(terms, ts)
    assert np.all(np.abs(got - want) <= 1e-13 * per_term_scale(terms, ts))
    for t in ts[::7]:
        assert isinstance(f.eval(float(t)), float)
        assert abs(f.eval(float(t)) - float(per_term_eval(terms, t))) <= (
            1e-13 * float(per_term_scale(terms, t)))


_TERMS = st.lists(
    st.tuples(
        st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3),
        st.integers(0, 3),
        _RATES,
        _FREQS,
        st.sampled_from(["cos", "sin"]),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(terms=_TERMS, shared_rate=_RATES, real_only=st.booleans())
def test_compiled_eval_matches_per_term_loop(terms, shared_rate, real_only):
    # every other term reuses one rate, so rates repeat across powers and phases
    terms = [(c, m, shared_rate if k % 2 else a, 0.0 if real_only else b, ph)
             for k, (c, m, a, b, ph) in enumerate(terms)]
    assert_compiled_eval_matches(terms, ExpPolyFn(terms), np.linspace(0.0, 3.0, 31))


# parsed kernels and the term tuples they stand for
_FIXED_KERNELS = {
    "0": [],
    "2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)":
        [(2.0, 0, 0.0, 0.0, "cos"), (1.0, 3, -1.0, 0.0, "cos"), (-0.5, 1, -1.0, 0.0, "cos"),
         (1.0, 0, 0.3, 0.0, "cos")],
    "exp(-0.5*t)*cos(2*t) + 3*exp(-0.5*t)*sin(2*t) + t^2*exp(-0.5*t)*sin(2*t)":
        [(1.0, 0, -0.5, 2.0, "cos"), (3.0, 0, -0.5, 2.0, "sin"), (1.0, 2, -0.5, 2.0, "sin")],
    "t^3*cos(1*t) + -1*t^3*sin(1*t) + t*exp(-1*t)*cos(1*t) + 4":
        [(1.0, 3, 0.0, 1.0, "cos"), (-1.0, 3, 0.0, 1.0, "sin"), (1.0, 1, -1.0, 1.0, "cos"),
         (4.0, 0, 0.0, 0.0, "cos")],
}


@pytest.mark.parametrize("text", list(_FIXED_KERNELS))
def test_compiled_eval_fixed_kernels(text):
    f, terms = parse_kernel(text), _FIXED_KERNELS[text]
    assert_compiled_eval_matches(terms, f, np.linspace(0.0, 3.0, 31))
    assert np.all(f.rates.imag >= 0.0) and len(set(f.rates.tolist())) == len(f.rates)
    assert np.isrealobj(f.C) == all(b == 0.0 for _, _, _, b, _ in terms)


def pow_einsum_eval(rates, C, u, s=0.0):
    """Re sum_z e^{z u} sum_{p,m} C[z, p, m] (s^p / p!) u^m from float pow
    tables and one complex three-operand einsum: the reference evaluator."""
    u, s = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(s, dtype=float))
    shape, u, s = u.shape, u.ravel(), s.ravel()
    n_z, n_p, n_m = C.shape
    poly = (C.reshape(-1, n_m) @ u ** np.arange(n_m)[:, None]).reshape(n_z, n_p, len(u))
    p = np.arange(n_p)[:, None]
    out = np.einsum("zpn,pn,zn->n", poly, s ** p / np.cumprod(np.maximum(p, 1.0), axis=0),
                    np.exp(np.multiply.outer(rates, u))).real
    return out.reshape(shape) if shape else float(out[0])


@st.composite
def _compiled_forms(draw):
    n_z, n_p = draw(st.integers(0, 3)), draw(st.sampled_from([1, 2, 5, 8]))
    n_m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = np.array([draw(_RATES) for _ in range(n_z)])
    C = rng.uniform(-2.0, 2.0, (n_z, n_p, n_m))
    if draw(st.booleans()):  # complex rates come with complex coefficients
        rates = rates + 1j * np.array([draw(_FREQS) for _ in range(n_z)])
        C = C + 1j * rng.uniform(-2.0, 2.0, C.shape)
    return rates, C


_POINTS = st.sampled_from([
    (0.7, 1.3),                                                # scalar
    (np.linspace(0.0, 3.0, 13), 0.0),                          # 1-D u, scalar s
    (np.linspace(0.0, 3.0, 13), np.linspace(3.0, 0.0, 13)),    # 1-D u and s
    (np.linspace(0.0, 2.0, 5)[:, None], np.linspace(0.0, 3.0, 7)),  # broadcast
])


@settings(max_examples=80, deadline=None)
@given(form=_compiled_forms(), points=_POINTS)
def test_compiled_eval_matches_pow_einsum_reference(form, points):
    (rates, C), (u, s) = form, points
    got, want = _eval_compiled(rates, C, u, s), pow_einsum_eval(rates, C, u, s)
    scale = pow_einsum_eval(rates.real, np.abs(C), u, s)  # eval_abs at each point
    assert np.shape(got) == np.broadcast_shapes(np.shape(u), np.shape(s))
    assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * scale)
    if np.ndim(u) == np.ndim(s) == 0:
        assert type(got) is float
    if not len(rates):
        assert np.all(got == 0.0)


def _term_value(M, N, j, t, s):
    """N-th s-derivative of the j-th series term ((-s)^j / j!) M^{*j}(t-s) alone."""
    f = conv_power(M, j)
    C = np.zeros((len(f.rates), j + 1, f.C.shape[1]), dtype=f.C.dtype)
    C[:, j] = (-1.0) ** j * f.C
    return _eval_compiled(*_s_derivative((f.rates, C), N), t - s, s)


@pytest.mark.parametrize("N", [0, 1, 2])
def test_series_kernel_eval_is_sum_of_terms(kernels4, N):
    extra = ("exp(-1*t)*cos(2*t)", "exp(-0.7*t) + 0.5*t*exp(-2*t)")
    for M in [parse_kernel(text) for text in extra] + list(kernels4.values()):
        K = BivariateKernel(M, N, 12)
        for t in (0.5, 1.0, 2.0):
            s = np.linspace(0.0, t, 9)
            terms = [_term_value(M, N, j, t, s) for j in range(1, 13)]
            scale = np.sum(np.abs(terms), axis=0)
            assert np.all(np.abs(K.eval(t, s) - np.sum(terms, axis=0)) <= 1e-13 * scale)
            assert abs(K.eval(t, float(s[3])) - K.eval(t, s)[3]) <= 1e-13 * scale[3]


def test_derived_objects_kept_on_kernel():
    M = parse_kernel("exp(-0.7*t) + 0.5*t*exp(-2*t)")
    assert conv_power(M, 3) is conv_power(M, 3)
    assert km_partial(M, 0, 40) is km_partial(M, 0, 40)
    assert km_partial(M, 1, 40) is not km_partial(M, 0, 40)
    assert h_coeff(M, 3) is h_coeff(M, 3) and p_coeff(M, 3) is p_coeff(M, 3)
    assert M.derivative(2) is M.derivative(2) and M.derivative(0) is M
    # equal kernels parsed twice are separate objects with separate memos
    assert conv_power(parse_kernel(format_kernel(M)), 3) is not conv_power(M, 3)


# ---------------------------------------------------------------------------
# the Leibniz form the folded series kernel replaced, and exact references
# ---------------------------------------------------------------------------

def ref_leibniz_eval(M, N, J, t, s):
    """d^N/ds^N of sum_{j<=J} ((-s)^j / j!) M^{*j}(t - s), each term expanded
    by the Leibniz rule into s^(j-i) times (M^{*j})^(N-i)(t - s)."""
    s = np.asarray(s, dtype=float)
    return sum(math.comb(N, i) * (-1.0) ** j * (-1.0) ** (N - i) / math.factorial(j - i)
               * s ** (j - i) * conv_power(M, j).derivative(N - i).eval(t - s)
               for j in range(1, J + 1) for i in range(min(N, j) + 1))


# exp(-t) + t^4 exp(-2t) is left out: its convolution powers are cancellation
# noise from j ~ 10 (the 1e-15 rule of ExpPolyFn._store), in either form
@pytest.mark.parametrize("text", ["exp(-1*t)", "exp(-0.9321*t)*cos(1.8472*t)",
                                  "exp(-0.8668*t) + 0.7431*t*exp(-2.2246*t)",
                                  "t^2*exp(0.5*t)*cos(2*t)"])
def test_km_partial_matches_leibniz_reference(text):
    M = parse_kernel(text)
    for N in range(5):
        K = km_partial(M, N, 40)
        got, want = [], []
        for t in np.linspace(0.25, 3.0, 12):
            s = np.linspace(0.0, t, 41)
            got.append(K.eval(t, s))
            want.append(ref_leibniz_eval(M, N, 40, t, s))
        got, want = np.array(got), np.array(want)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _taylor_at_zero(terms, n):
    """M^(k)(0), k < n, as exact fractions, for real-rate terms (c, m, a)."""
    out = [Fraction(0)] * n
    for c, m, a in terms:
        c, a = Fraction(c), Fraction(a)
        for k in range(m, n):
            out[k] += c * (math.factorial(k) // math.factorial(k - m)) * a ** (k - m)
    return out


def _powers_at_zero(terms, j_max, n):
    """F[j][k] = (M^{*j})^(k)(0), j <= j_max, k < n: M-hat^j = s^-j A(1/s)^j
    with A(x) = sum_k M^(k)(0) x^k, so F[j][k] is the x^(k+1-j) coefficient
    of A(x)^j."""
    A = _taylor_at_zero(terms, n)
    P, F = [Fraction(1)] + [Fraction(0)] * (n - 1), [None]
    for j in range(1, j_max + 1):
        P = [sum(P[i] * A[k - i] for i in range(k + 1)) for k in range(n)]
        F.append([P[k + 1 - j] if k + 1 >= j else Fraction(0) for k in range(n)])
    return F


_REAL_RATE_KERNELS = {  # text: its terms (c, m, a)
    "exp(-1*t)": [(1.0, 0, -1.0)],
    "3": [(3.0, 0, 0.0)],
    "t*exp(-1.5*t)": [(1.0, 1, -1.5)],
    "exp(-0.8668*t) + 0.7431*t*exp(-2.2246*t)": [(1.0, 0, -0.8668), (0.7431, 1, -2.2246)],
}


@pytest.mark.parametrize("text", list(_REAL_RATE_KERNELS))
def test_h_coeff_matches_exact_taylor_series(text):
    # h_l(t) = (-1)^l sum_j C(l, j) (M^{*j})^(l-j)(t), summed exactly as its
    # Taylor series at 0; 70 terms put the tail below 1e-20 for t <= 2
    M, n, ts = parse_kernel(text), 70, (0.0, 0.5, 1.0, 2.0)
    F = _powers_at_zero(_REAL_RATE_KERNELS[text], 7, n)
    for l in range(1, 8):
        taylor = [(-1) ** l * sum(math.comb(l, j) * F[j][l - j + k] for j in range(1, l + 1))
                  / math.factorial(k) for k in range(n - l)]
        want = [float(sum(c * Fraction(t) ** k for k, c in enumerate(taylor))) for t in ts]
        got = h_coeff(M, l).eval(np.array(ts))
        # relative to the largest |h_l| on the points: h_2 of exp(-t) vanishes at t = 2
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("text", [*_REAL_RATE_KERNELS, "exp(-1*t) + t^4*exp(-2*t)"])
def test_p_coeff_matches_exact_coefficients(text):
    # p_l(t) = -d^l/ds^l K(t, s) at s = t: the t^m coefficient collects the
    # Leibniz pieces with s^(j-i), m = j - i, at u = 0
    terms = _REAL_RATE_KERNELS.get(text, [(1.0, 0, -1.0), (1.0, 4, -2.0)])
    M, F = parse_kernel(text), _powers_at_zero(terms, 8, 20)
    for l in range(8):
        want = np.array([float(-(-1) ** (l + m) * sum(
            math.comb(l, j - m) * F[j][l - j + m] for j in range(max(1, m), l + 2))
            / math.factorial(m)) for m in range(l + 2)])
        p = p_coeff(M, l)
        assert p.rates.tolist() in ([], [0.0])
        got = np.zeros(l + 2)
        got[:p.C.shape[1]] = p.C.sum(axis=0)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_p_coeff_forms_no_convolution_power():
    # p_l reads the Taylor data of M at 0, not the closed-form powers M^{*j}
    M = parse_kernel("exp(-0.8668*t) + 0.7431*t*exp(-2.2246*t)")
    for l in range(8):
        p_coeff(M, l)
    assert not [key for key in M._memo if key[0] == "conv_power"]


# ---------------------------------------------------------------------------
# the term-tuple algebra the row algebra replaced, kept as a reference
# ---------------------------------------------------------------------------

def ref_canonical(terms):
    """Merge duplicate (power, rate, freq, phase) keys, fold freq < 0, drop
    noise.  Coefficients are summed as given (mpmath numbers in the
    convolution and product references) and rounded to floats once, after
    the merge."""
    acc = {}
    for c, m, a, b, ph in terms:
        if c == 0.0:
            continue
        if b < 0:
            # cos is even, sin is odd
            if ph == "sin":
                c = -c
            b = -b
        if b == 0.0 and ph == "sin":
            continue  # sin(0) == 0
        if b == 0.0:
            ph = "cos"
        key = (int(m), float(a), float(b), ph)
        acc[key] = acc.get(key, 0.0) + c
    if not acc:
        return []
    tol = 1e-15 * max(abs(c) for c in acc.values())
    return sorted((float(c), m, a, b, ph) for (m, a, b, ph), c in acc.items() if abs(c) > tol)


def ref_complex_terms(terms):
    """Rewrite as sum of c * t^m * exp(z t) with complex c, z."""
    out = []
    for c, m, a, b, ph in ref_canonical(terms):
        if b == 0.0:
            out.append((complex(c), m, complex(a)))
        elif ph == "cos":
            out.append((0.5 * c + 0j, m, complex(a, b)))
            out.append((0.5 * c + 0j, m, complex(a, -b)))
        else:
            out.append((-0.5j * c, m, complex(a, b)))
            out.append((0.5j * c, m, complex(a, -b)))
    return out


def ref_complex_to_real(c, m, z):
    """Real part of c * t^m * exp(z t) as real term tuples."""
    a, b = z.real, z.imag
    if b == 0.0:
        return [(c.real, m, a, 0.0, "cos")]
    return [(c.real, m, a, b, "cos"), (-c.imag, m, a, b, "sin")]


def ref_conv_pair(p, z1, q, z2):
    """Convolution of t^p e^{z1 t} with t^q e^{z2 t} as complex term tuples,
    coefficients in mpmath: the partial fractions of distinct rates cancel
    when merged, and in floats they leave residues of 1e-13 relative."""
    fact = math.factorial
    if abs(z2 - z1) <= 1e-12 * max(1.0, abs(z1), abs(z2)):
        return [(mpmath.mpc(fact(p) * fact(q)) / fact(p + q + 1), p + q + 1, z1)]
    w = mpmath.mpc(z2) - z1
    out = []
    for i in range(p + 1):
        pref = math.comb(p, i) * (-1) ** i
        n = q + i
        # int_0^t u^n e^{w u} du, then multiplied by e^{z1 t} t^{p-i}
        for k in range(n + 1):
            c = pref * (-1) ** k * (fact(n) // fact(n - k)) / w ** (k + 1)
            out.append((c, p - i + n - k, z2))
        out.append((pref * (-1) ** (n + 1) * fact(n) / w ** (n + 1), p - i, z1))
    return out


def ref_convolve(f, g):
    with mpmath.workdps(40):
        return ref_canonical(
            term for c1, m1, z1 in ref_complex_terms(f) for c2, m2, z2 in ref_complex_terms(g)
            for c, m, z in ref_conv_pair(m1, z1, m2, z2)
            for term in ref_complex_to_real(mpmath.mpc(c1) * c2 * c, m, z))


def ref_mul(f, g):
    with mpmath.workdps(40):
        return ref_canonical(
            term for c1, m1, z1 in ref_complex_terms(f) for c2, m2, z2 in ref_complex_terms(g)
            for term in ref_complex_to_real(mpmath.mpc(c1) * c2, m1 + m2, z1 + z2))


# rates and frequencies on grids of step 0.25: two rates coincide or differ
# by at least 0.25, so the closed forms are well conditioned
_SOME_TERMS = _TERMS.filter(bool).map(lambda terms: terms[:3])


@settings(max_examples=40, deadline=None)
@given(f=_SOME_TERMS, g=_SOME_TERMS)
# t^3 e^{-0.75t} sin(0.25t) against its cos twin: summed in floats, the
# reference's partial fractions (rate gap 0.5i) left a 2e-13 residue here
@example(f=[(1.451171875, 3, -0.75, 0.25, "sin")],
         g=[(1.4515404747835419, 3, -0.75, 0.25, "cos")])
def test_convolve_and_product_match_tuple_reference(f, g):
    _check_convolve_and_product(f, g)


def _check_convolve_and_product(f, g):
    ts = np.linspace(0.0, 3.0, 31)
    F, G = ExpPolyFn(f), ExpPolyFn(g)
    for got, want in ((F.convolve(G), ref_convolve(f, g)), (F * G, ref_mul(f, g))):
        assert np.all(np.abs(got.eval(ts) - per_term_eval(want, ts))
                      <= 1e-12 * per_term_scale(want, ts))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the closed-form convolution keeps a cancellation residue "
    "of 1.25e-12 of the per-term scale at t = 0, where the exact value is 0"))
def test_convolve_of_a_close_conjugate_pair_matches_the_exact_reference():
    # t^3 e^{-1.25t} sin(0.25t) against e^{-1.5t} cos(1.5t) plus its cos
    # twin: the closed form misses the exact reference at t = 0 ... 0.3 by
    # up to 1.25e-12 of the per-term scale, where neither term of g alone
    # misses it
    _check_convolve_and_product([(1.0, 3, -1.25, 0.25, "sin")],
                                [(1.0, 0, -1.5, 1.5, "cos"), (1.0, 3, -1.25, 0.25, "cos")])


@settings(max_examples=40, deadline=None)
@given(terms=_TERMS, t=st.floats(0.25, 2.5))
def test_derivative_matches_central_differences(terms, t):
    f, h = ExpPolyFn(terms), 1e-3
    fd = (f.eval(t - 2 * h) - 8 * f.eval(t - h) + 8 * f.eval(t + h) - f.eval(t + 2 * h)) / (12 * h)
    # fourth-order stencil, error h^4/30 |f^(5)|; on [0.25, 2.5] the scale
    # below bounds |f^(5)| with room to spare
    scale = sum(abs(c) * (1 + m + abs(a) + b) ** 5 * (1 + t) ** m * np.exp(a * t + 2 * h * abs(a))
                for c, m, a, b, _ in terms)
    assert abs(f.derivative(1).eval(t) - fd) <= 1e-10 * scale + 1e-12


@settings(max_examples=60, deadline=None)
@given(terms=_TERMS)
def test_parse_format_round_trip_random_terms(terms):
    f = ExpPolyFn(terms)
    g = parse_kernel(format_kernel(f))
    ts = np.linspace(0.0, 3.0, 31)
    assert np.all(np.abs(f.eval(ts) - g.eval(ts)) <= 1e-14 * (1.0 + per_term_scale(terms, ts)))


# a cos kernel, an exp-poly kernel, a resonant one and a single high power
_POWER_KERNELS = {
    "exp(-0.9321*t)*cos(1.8472*t)": [(1.0, 0, -0.9321, 1.8472, "cos")],
    "exp(-0.8668*t) + 0.7431*t*exp(-2.2246*t)": [(1.0, 0, -0.8668, 0.0, "cos"),
                                                 (0.7431, 1, -2.2246, 0.0, "cos")],
    "t*exp(-1*t) + exp(-1*t)": [(1.0, 1, -1.0, 0.0, "cos"), (1.0, 0, -1.0, 0.0, "cos")],
    "t^13": [(1.0, 13, 0.0, 0.0, "cos")],
}


@pytest.mark.parametrize("text", list(_POWER_KERNELS))
def test_conv_power_matches_repeated_tuple_convolution(text):
    M, terms, ts = parse_kernel(text), _POWER_KERNELS[text], np.linspace(0.0, 3.0, 31)
    power = terms
    for j in range(1, 13):
        if j > 1:
            power = ref_convolve(power, terms)
        got = conv_power(M, j).eval(ts)
        assert np.all(np.abs(got - per_term_eval(power, ts)) <= 1e-12 * per_term_scale(power, ts))


@pytest.mark.parametrize("text", ["exp(-1*t) + t^4*exp(-2*t)", "t^13",
                                  "2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)"])
def test_series_kernel_form_is_finite(text):
    M = parse_kernel(text)
    for N in (0, 4):
        assert np.all(np.isfinite(km_partial(M, N, 40)._form[1]))


def test_power_table_built_once_per_kernel():
    M = parse_kernel("exp(-0.7*t) + 0.5*t*exp(-2*t)")
    km_partial(M, 0, 40)
    tables = [key for key in M._memo if key[0] == "_power_table"]
    km_partial(M, 4, 40)
    conv_power(M, 17)
    h_coeff(M, 3)
    assert len(tables) == 1 and [key for key in M._memo if key[0] == "_power_table"] == tables


def test_pascal_table_is_the_binomials():
    table = _pascal(200)
    want = np.array([[math.comb(i, j) for j in range(200)] for i in range(200)], dtype=float)
    assert np.array_equal(table, want) and not table.flags.writeable


def _trapezoid_powers(M, T, n, j_max):
    """M^{*j} for j <= j_max on the grid of n steps on [0, T], by repeated
    trapezoid convolution."""
    m = M.eval(np.linspace(0.0, T, n + 1))
    powers, h = [None, m], T / n
    for _ in range(2, j_max + 1):
        f = powers[-1]
        powers.append(h * (np.convolve(f, m)[:n + 1] - 0.5 * (f * m[0] + f[0] * m)))
    return powers


@pytest.mark.parametrize("text", ["exp(-0.9321*t)*cos(1.8472*t)",
                                  "exp(-0.8668*t) + 0.7431*t*exp(-2.2246*t)"])
def test_conv_power_matches_trapezoid_quadrature(text):
    M = parse_kernel(text)
    coarse, fine = _trapezoid_powers(M, 3.0, 600, 12), _trapezoid_powers(M, 3.0, 1200, 12)
    for j in range(1, 13):
        ref = (4 * fine[j][::2] - coarse[j]) / 3  # Richardson: O(h^4)
        err = np.max(np.abs(conv_power(M, j).eval(np.linspace(0.0, 3.0, 601)) - ref))
        # up to j = 9 both kernels agree to the quadrature's 1e-11; from j = 10
        # the two-rate kernel drifts to 1.1e-9, because the 1e-15 cancellation
        # rule drops the top powers of its convolution powers
        assert err <= 2e-9


# ---------------------------------------------------------------------------
# the state-space realization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, size", [
    ("exp(-1*t)", 1),
    ("1", 1),
    ("2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)", 6),
    ("cos(60*t)", 2),
    ("t^2*exp(0.5*t)*cos(2*t) + exp(-2*t)*sin(3*t) + t", 12),
    ("0", 0),
])
def test_realization_impulse_response_is_the_kernel(text, size):
    """c^T e^{A t} b reproduces M; complex rates double the state count."""
    from scipy.linalg import expm
    M = parse_kernel(text)
    A, b, c = realization(M)
    assert A.shape == (size, size) and b.shape == c.shape == (size,)
    assert realization(M)[0] is A and not A.flags.writeable
    for t in (0.0, 0.3, 1.7):
        want = M.eval(t)
        assert c @ expm(A * t) @ b == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_realization_blocks_follow_the_stored_rows():
    # rows at rates -1 (top power 3) and 0.3 (top power 0), and 0 (the constant)
    M = parse_kernel("2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)")
    A, b, c = realization(M)
    assert list(M.rates) == [-1.0, 0.0, 0.3]
    assert np.array_equal(np.diag(A), [-1.0] * 4 + [0.0, 0.3])
    assert np.array_equal(np.diag(A, -1), [1.0, 2.0, 3.0, 0.0, 0.0])
    assert np.array_equal(A, np.diag(np.diag(A)) + np.diag(np.diag(A, -1), -1))
    assert np.array_equal(b, [1.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(c, [0.0, -0.5, 0.0, 1.0, 2.0, 1.0])
