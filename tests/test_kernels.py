import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from memflow.kernels import (
    BivariateKernel,
    ExpPolyFn,
    KernelParseError,
    conv_power,
    format_kernel,
    h_coeff,
    kernel_c_norm,
    km_partial,
    p_coeff,
    parse_kernel,
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
    assert K.term_value(1, 1.0, 0.5) == pytest.approx(-0.5 * 3.0, rel=1e-14)


def test_km_vanishes_at_s_zero(kernels4):
    for M in kernels4.values():
        K = km_partial(M, 0, 20)
        assert K.eval(1.3, 0.0) == 0.0


def test_km_truncation_consistency(kernels4):
    for M in kernels4.values():
        K30 = BivariateKernel(M, 0, 30)
        K60 = BivariateKernel(M, 0, 60)
        for (t, s) in ((1.0, 0.5), (2.0, 1.7), (0.5, 0.1)):
            diff = abs(K30.eval(t, s) - K60.eval(t, s))
            assert diff <= K30.tail_bound(t, s) + 1e-300


def test_km_tail_dominates_term_magnitudes(kernels4):
    # successive-truncation differences are controlled by the tail bound
    for M in kernels4.values():
        K = BivariateKernel(M, 2, 25)
        for j in range(18, 25):
            v = abs(K.term_value(j + 1, 1.5, 1.0))
            low = BivariateKernel(M, 2, j)
            assert v <= low.tail_bound(1.5, 1.0)


def test_km_checked_eval_raises_when_truncated_too_short():
    from memflow.kernels import TruncationError
    K = BivariateKernel(parse_kernel("3"), 0, 2)
    with pytest.raises(TruncationError):
        K.eval_checked(2.0, 1.9, 1e-12)


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
])
def test_parse_format_round_trip(text):
    f = parse_kernel(text)
    g = parse_kernel(format_kernel(f))
    ts = np.linspace(0, 2, 64)
    assert np.allclose(f.eval(ts), g.eval(ts), atol=1e-14)


@pytest.mark.parametrize("bad", ["", "t^", "exp(t^2)", "cos(2*t)*sin(1*t)*cos(1*t)",
                                 "2**t", "spam", "t^2.5"])
def test_parse_errors(bad):
    with pytest.raises(KernelParseError):
        parse_kernel(bad)


def test_canonical_merges_terms():
    f = ExpPolyFn.term(1.0, 1, -0.5, 0.0) + ExpPolyFn.term(2.0, 1, -0.5, 0.0)
    assert len(f.terms) == 1
    assert f.terms[0].coeff == 3.0


def test_negative_frequency_folded():
    f = ExpPolyFn.term(1.0, 0, 0.0, -2.0, "sin")
    g = ExpPolyFn.term(-1.0, 0, 0.0, 2.0, "sin")
    ts = np.linspace(0, 2, 16)
    assert np.allclose(f.eval(ts), g.eval(ts))
    assert f.terms == g.terms


# ---------------------------------------------------------------------------
# compiled form and per-kernel memo
# ---------------------------------------------------------------------------

def per_term_eval(f, t):
    """Term-by-term sum of c t^m e^{a t} trig(b t): the reference evaluator."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for T in f.terms:
        trig = np.cos if T.phase == "cos" else np.sin
        out = out + T.coeff * t**T.power * np.exp(T.rate * t) * trig(T.freq * t)
    return out


def per_term_scale(f, t):
    """Sum of the term magnitudes |c| t^m e^{a t}: the scale of the rounding."""
    t = np.asarray(t, dtype=float)
    return sum(abs(T.coeff) * t**T.power * np.exp(T.rate * t) for T in f.terms) + 0.0 * t


def assert_compiled_eval_matches(f, ts):
    got, want = f.eval(ts), per_term_eval(f, ts)
    assert np.all(np.abs(got - want) <= 1e-13 * per_term_scale(f, ts))
    for t in ts[::7]:
        assert isinstance(f.eval(float(t)), float)
        assert abs(f.eval(float(t)) - float(per_term_eval(f, t))) <= (
            1e-13 * float(per_term_scale(f, t)))


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
    assert_compiled_eval_matches(ExpPolyFn(terms), np.linspace(0.0, 3.0, 31))


@pytest.mark.parametrize("text", [
    "0",
    "2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)",
    "exp(-0.5*t)*cos(2*t) + 3*exp(-0.5*t)*sin(2*t) + t^2*exp(-0.5*t)*sin(2*t)",
    "t^3*cos(1*t) + -1*t^3*sin(1*t) + t*exp(-1*t)*cos(1*t) + 4",
])
def test_compiled_eval_fixed_kernels(text):
    f = parse_kernel(text)
    assert_compiled_eval_matches(f, np.linspace(0.0, 3.0, 31))
    rates, C = f._compiled()
    assert np.all(rates.imag >= 0.0) and len(set(rates.tolist())) == len(rates)
    assert np.isrealobj(C) == all(T.freq == 0.0 for T in f.terms)


@pytest.mark.parametrize("N", [0, 1, 2])
def test_series_kernel_eval_is_sum_of_terms(kernels4, N):
    extra = ("exp(-1*t)*cos(2*t)", "exp(-0.7*t) + 0.5*t*exp(-2*t)")
    for M in [parse_kernel(text) for text in extra] + list(kernels4.values()):
        K = BivariateKernel(M, N, 12)
        for t in (0.5, 1.0, 2.0):
            s = np.linspace(0.0, t, 9)
            terms = [K.term_value(j, t, s) for j in range(1, 13)]
            scale = np.sum(np.abs(terms), axis=0)
            assert np.all(np.abs(K.eval(t, s) - np.sum(terms, axis=0)) <= 1e-13 * scale)
            assert abs(K.eval(t, float(s[3])) - K.eval(t, s)[3]) <= 1e-13 * scale[3]


def test_derived_objects_kept_on_kernel():
    M = parse_kernel("exp(-0.7*t) + 0.5*t*exp(-2*t)")
    assert conv_power(M, 3) is conv_power(M, 3)
    assert km_partial(M, 0, 40) is km_partial(M, 0, 40)
    assert km_partial(M, 1, 40) is not km_partial(M, 0, 40)
    assert h_coeff(M, 3) is h_coeff(M, 3) and p_coeff(M, 3) is p_coeff(M, 3)
    # equal kernels parsed twice are separate objects with separate memos
    assert conv_power(parse_kernel(format_kernel(M)), 3) is not conv_power(M, 3)
