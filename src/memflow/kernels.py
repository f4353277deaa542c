"""Exact algebra of exponential polynomials.

Memory kernels and everything derived from them (derivatives, convolution
powers, the coefficient sequences of the flow decomposition, the bivariate
series kernel) live in the family

    f(t) = sum_k  c_k * t^{m_k} * exp(a_k t) * {cos, sin}(b_k t),

which is closed under differentiation, pointwise products and finite
convolution on [0, inf).  All values are immutable and all operations pure.

Every evaluation reads one compiled form: the distinct rates z (Im z >= 0, a
conjugate pair folded into one rate with its coefficient doubled) and an array
C[z, m] with f(t) = Re sum_z e^{z t} sum_m C[z, m] t^m, real when every rate
is.  The series kernel folds its pieces into one C[z, p, m] over s^p (t-s)^m;
the stepper's memory recurrence reads its blocks.  This form and the objects
derived from a kernel (convolution powers, h_l, p_l, ``km_partial``, the C^N
norms) are kept in a memo on the kernel and live as long as it does.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Term",
    "ExpPolyFn",
    "TruncationError",
    "conv_power",
    "h_coeff",
    "p_coeff",
    "kernel_c_norm",
    "BivariateKernel",
    "km_partial",
    "parse_kernel",
    "format_kernel",
]

# Relative magnitude below which a term is treated as cancellation noise.
CANCEL_TOL = 1e-15


class TruncationError(Exception):
    """Partial-sum tail bound exceeds the caller tolerance."""


@dataclass(frozen=True)
class Term:
    """One summand c * t^power * exp(rate*t) * phase(freq*t), phase in {cos, sin}."""

    coeff: float
    power: int
    rate: float
    freq: float
    phase: str  # "cos" or "sin"


def _kept_on_kernel(fn):
    """Memoize fn(M, *args) in the memo of the ExpPolyFn M."""
    @functools.wraps(fn)
    def kept(M, *args, **kwargs):
        key = (fn.__name__, *args, *sorted(kwargs.items()))
        hit = M._memo.get(key)
        if hit is None:
            hit = M._memo[key] = fn(M, *args, **kwargs)
        return hit
    return kept


def _canonical(terms):
    """Merge duplicate (power, rate, freq, phase) keys, fold freq < 0, drop noise."""
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
        acc[key] = acc.get(key, 0.0) + float(c)
    if not acc:
        return ()
    biggest = max(abs(c) for c in acc.values())
    tol = CANCEL_TOL * biggest
    out = [
        Term(c, m, a, b, ph)
        for (m, a, b, ph), c in acc.items()
        if abs(c) > tol
    ]
    out.sort(key=lambda T: (T.power, T.rate, T.freq, T.phase))
    return tuple(out)


class ExpPolyFn:
    """A finite sum of exponential-polynomial terms, kept in canonical form.

    Canonical form: no two terms share (power, rate, freq, phase), frequencies
    are non-negative, and coefficients below 1e-15 of the largest one are
    dropped (resonant convolutions generate near-cancelling pairs).
    """

    __slots__ = ("terms", "_memo")

    def __init__(self, terms=()):
        object.__setattr__(self, "terms", _canonical(
            (T.coeff, T.power, T.rate, T.freq, T.phase) if isinstance(T, Term) else T
            for T in terms
        ))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, *a):  # immutable
        raise AttributeError("ExpPolyFn is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return ExpPolyFn()

    @staticmethod
    def const(c):
        return ExpPolyFn([(float(c), 0, 0.0, 0.0, "cos")])

    @staticmethod
    def term(coeff=1.0, power=0, rate=0.0, freq=0.0, phase="cos"):
        return ExpPolyFn([(coeff, power, rate, freq, phase)])

    # -- basics --------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def eval(self, t):
        rates, C = self._compiled()
        return _eval_compiled(rates, C[:, None, :], t)

    __call__ = eval

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = ExpPolyFn.const(other)
        return ExpPolyFn(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return ExpPolyFn([Term(-T.coeff, T.power, T.rate, T.freq, T.phase) for T in self.terms])

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = ExpPolyFn.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ExpPolyFn(
                [Term(other * T.coeff, T.power, T.rate, T.freq, T.phase) for T in self.terms]
            )
        # pointwise product via the complex representation
        out = []
        for c1, m1, z1 in self._complex_terms():
            for c2, m2, z2 in other._complex_terms():
                out.extend(_complex_to_real(c1 * c2, m1 + m2, z1 + z2))
        return ExpPolyFn(out)

    __rmul__ = __mul__

    def __repr__(self):
        return f"ExpPolyFn({format_kernel(self)!r})"

    # -- calculus ------------------------------------------------------------

    def derivative(self, k=1):
        """Exact k-th derivative, in canonical form."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        f = self
        for _ in range(k):
            new = []
            for T in f.terms:
                c, m, a, b, ph = T.coeff, T.power, T.rate, T.freq, T.phase
                if m > 0:
                    new.append((c * m, m - 1, a, b, ph))
                if a != 0.0:
                    new.append((c * a, m, a, b, ph))
                if b != 0.0:
                    if ph == "cos":
                        new.append((-c * b, m, a, b, "sin"))
                    else:
                        new.append((c * b, m, a, b, "cos"))
            f = ExpPolyFn(new)
        return f

    def convolve(self, other):
        """Exact convolution (f*g)(t) = int_0^t f(t-u) g(u) du.

        Closed in the family; coinciding complex rates (resonance) raise the
        power of t instead of dividing by a vanishing rate gap.
        """
        out = []
        for c1, m1, z1 in self._complex_terms():
            for c2, m2, z2 in other._complex_terms():
                for c, m, z in _conv_pair(m1, z1, m2, z2):
                    out.extend(_complex_to_real(c1 * c2 * c, m, z))
        return ExpPolyFn(out)

    # -- internal ------------------------------------------------------------

    @_kept_on_kernel
    def _compiled(self):
        """Read-only (rates, C) with f(t) = Re sum_z e^{z t} sum_m C[z, m] t^m;
        rates in the order of their first term, a row's last nonzero entry at
        the top power of its rate."""
        rows = {}
        for coef, m, z in self._complex_terms():
            if z.imag >= 0.0:
                row = rows.setdefault(z, {})
                row[m] = row.get(m, 0.0) + (2.0 * coef if z.imag > 0.0 else coef)
        width = 1 + max((max(row) for row in rows.values()), default=0)
        rates = np.array(list(rows), dtype=complex)
        C = np.array([[row.get(m, 0.0) for m in range(width)] for row in rows.values()],
                     dtype=complex).reshape(len(rows), width)
        if not rates.imag.any():
            rates, C = rates.real.copy(), C.real.copy()
        rates.flags.writeable = C.flags.writeable = False
        return rates, C

    def _complex_terms(self):
        """Rewrite as sum of c * t^m * exp(z t) with complex c, z."""
        out = []
        for T in self.terms:
            c, m, a, b = T.coeff, T.power, T.rate, T.freq
            if b == 0.0:
                out.append((complex(c), m, complex(a)))
            elif T.phase == "cos":
                out.append((0.5 * c + 0j, m, complex(a, b)))
                out.append((0.5 * c + 0j, m, complex(a, -b)))
            else:
                out.append((-0.5j * c, m, complex(a, b)))
                out.append((0.5j * c, m, complex(a, -b)))
        return out


def _eval_compiled(rates, C, u, s=0.0):
    """Re sum_z e^{z u} sum_{p,m} C[z, p, m] s^p u^m, elementwise over the
    broadcast of u and s; a float for scalar input."""
    u, s = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(s, dtype=float))
    shape, u, s = u.shape, u.ravel(), s.ravel()
    n_z, n_p, n_m = C.shape
    poly = (C.reshape(-1, n_m) @ u ** np.arange(n_m)[:, None]).reshape(n_z, n_p, len(u))
    out = np.einsum("zpn,pn,zn->n", poly, s ** np.arange(n_p)[:, None],
                    np.exp(np.multiply.outer(rates, u))).real
    return out.reshape(shape) if shape else float(out[0])


def _complex_to_real(c, m, z):
    """Real part of c * t^m * exp(z t) as canonical real term tuples."""
    a, b = z.real, z.imag
    if b == 0.0:
        return [(c.real, m, a, 0.0, "cos")]
    return [(c.real, m, a, b, "cos"), (-c.imag, m, a, b, "sin")]


def _conv_pair(p, z1, q, z2):
    """Convolution of t^p e^{z1 t} with t^q e^{z2 t} as complex term tuples.

    Rates closer than 1e-12 (relative) are treated as resonant; rate gaps that
    are tiny but above that threshold are inherently ill-conditioned in this
    representation (the closed form divides by powers of the gap).
    """
    fact = math.factorial
    if abs(z2 - z1) <= 1e-12 * max(1.0, abs(z1), abs(z2)):
        c = fact(p) * fact(q) / fact(p + q + 1)
        return [(complex(c), p + q + 1, z1)]
    w = z2 - z1
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


# ---------------------------------------------------------------------------
# convolution powers and the decomposition coefficients
# ---------------------------------------------------------------------------

@_kept_on_kernel
def conv_power(M, j):
    """j-fold convolution M * ... * M; the zero function for j = 0."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return ExpPolyFn.zero()
    if j == 1:
        return M
    return conv_power(M, j - 1).convolve(M)


@_kept_on_kernel
def h_coeff(M, l):
    """Coefficient of the instantaneous (wave-like) flow part at inverse-Laplacian
    order l+1.  h_0 is identically zero; h_1 = -M."""
    if l < 0:
        raise ValueError("l must be >= 0")
    out = ExpPolyFn.zero()
    for j in range(l + 1):
        out = out + conv_power(M, j).derivative(l - j) * math.comb(l, l - j)
    return out * float((-1) ** l)


@_kept_on_kernel
def p_coeff(M, l):
    """Polynomial coefficient of the smoothing (heat-like) flow part at order l+1.

    Its value at 0 is -h_coeff(M, l)(0); all other terms carry t^m with m >= 1.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    out = ExpPolyFn.const(-h_coeff(M, l).eval(0.0))
    sign = float((-1) ** (l + 1))
    for j in range(1, l + 2):
        Fj = conv_power(M, j)
        for m in range(max(1, 2 * j - l - 1), j + 1):
            d = l - j + m
            if d < 0 or d > l:
                continue  # binomial vanishes outside [0, l]
            val = math.comb(l, d) * Fj.derivative(d).eval(0.0)
            if val != 0.0:
                out = out + ExpPolyFn.term(
                    sign * val * (-1.0) ** m / math.factorial(m), power=m
                )
    return out


# ---------------------------------------------------------------------------
# C^N-type norm: sum over derivative orders of sup |M^(k)| on [0, t]
# ---------------------------------------------------------------------------

def _max_abs(f, lo, hi, samples=1024):
    """sup |f| on [lo, hi] by dense sampling plus golden-section refinement."""
    if hi <= lo:
        return abs(f.eval(lo))
    xs = np.linspace(lo, hi, samples + 1)
    vals = np.abs(f.eval(xs))
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, samples)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = abs(f.eval(c))
    fd = abs(f.eval(d))
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = abs(f.eval(c))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = abs(f.eval(d))
        if b - a < 1e-14 * max(1.0, hi - lo):
            break
    return max(best, fc, fd)


@_kept_on_kernel
def kernel_c_norm(M, N, t):
    """sum_{k<=N} sup_{[0,t]} |M^(k)|, each sup found numerically."""
    if t <= 0:
        raise ValueError("t must be > 0")
    return float(sum(_max_abs(M.derivative(k), 0.0, t) for k in range(N + 1)))


# ---------------------------------------------------------------------------
# the bivariate series kernel and its s-derivatives
# ---------------------------------------------------------------------------

class BivariateKernel:
    """Partial sums of the series kernel K(t, s) = sum_j ((-s)^j / j!) M^{*j}(t-s)
    differentiated deriv_order times in s, valid on t >= s >= 0.

    Each series term is expanded by the Leibniz rule into powers of s times
    derivatives of the convolution powers, all exact exponential polynomials,
    and the pieces are folded into one compiled array C[z, p, m] in the powers
    s^p (t-s)^m.  A computable tail bound controls the truncation at
    ``truncation_order``.
    """

    def __init__(self, M, deriv_order, truncation_order):
        if truncation_order < 1:
            raise ValueError("truncation_order must be >= 1")
        if deriv_order < 0:
            raise ValueError("deriv_order must be >= 0")
        self.M = M
        self.deriv_order = int(deriv_order)
        self.truncation_order = int(truncation_order)
        N = self.deriv_order
        # pieces[j-1] = list of (scalar, s_power, ExpPolyFn in (t-s)) of term j
        self.pieces = [
            [(math.comb(N, i) * (-1.0) ** j * (-1.0) ** (N - i) / math.factorial(j - i),
              j - i, conv_power(M, j).derivative(N - i)) for i in range(min(N, j) + 1)]
            for j in range(1, truncation_order + 1)]
        self._form = _fold(piece for row in self.pieces for piece in row)

    def eval(self, t, s):
        """Partial-sum value at (t, s); s may be an array (with scalar t)."""
        s = np.asarray(s, dtype=float)
        return _eval_compiled(*self._form, t - s, s)

    def term_value(self, j, t, s):
        """Value of the j-th series term alone (1-based j)."""
        s = np.asarray(s, dtype=float)
        return _eval_compiled(*_fold(self.pieces[j - 1]), t - s, s)

    def _term_bound(self, j, t, s):
        # |term_j| <= 2^N * max_i s^{j-i}/(j-i)! * (cbar (1+t))^j where cbar is
        # the C^N-type norm of M on [0, t]; the growth factor follows from the
        # recursion max-norm(M * g) <= cbar (1+t) max-norm(g).
        N = self.deriv_order
        cnorm = kernel_c_norm(self.M, N, t) if t > 0 else abs(self.M.eval(0.0))
        g = cnorm * (1.0 + t)
        if g == 0.0:
            return 0.0
        best = 0.0
        for i in range(min(N, j) + 1):
            best = max(best, s ** (j - i) / math.factorial(j - i))
        return 2.0**N * best * g**j

    def tail_bound(self, t, s):
        """Upper bound on the absolute truncation error at (t, s)."""
        s = float(np.max(np.asarray(s, dtype=float)))
        if s == 0.0:
            return 0.0
        total = 0.0
        prev = None
        for j in range(self.truncation_order + 1, self.truncation_order + 400):
            b = self._term_bound(j, t, s)
            if prev is not None and b < 0.5 * prev:
                # geometric from here on
                total += b / (1.0 - b / prev)
                return total
            total += b
            prev = b
            if b < 1e-300:
                return total
        raise TruncationError(
            f"series tail not summable at (t={t}, s={s}) "
            f"with truncation_order={self.truncation_order}"
        )

    def eval_checked(self, t, s, tol):
        """Partial sum, raising TruncationError if the tail bound exceeds tol."""
        bound = self.tail_bound(t, s)
        if bound > tol:
            raise TruncationError(
                f"tail bound {bound:.3e} exceeds tolerance {tol:.3e} at "
                f"(t={t}, s={s}); raise truncation_order"
            )
        return self.eval(t, s)


def _fold(pieces):
    """Compiled (rates, C[z, p, m]) of sum scal * s^p * f(u) over the pieces
    (scal, p, f), with u = t - s."""
    forms = [(scal, p, *f._compiled()) for scal, p, f in pieces]
    index = {z: k for k, z in enumerate(dict.fromkeys(
        z for _, _, rates, _ in forms for z in rates))}
    out = np.zeros((len(index), 1 + max(p for _, p, _, _ in forms),
                    max(C.shape[1] for *_, C in forms)),
                   dtype=np.result_type(*(C for *_, C in forms)))
    for scal, p, rates, C in forms:
        out[[index[z] for z in rates], p, :C.shape[1]] += scal * C
    return np.array(list(index), dtype=out.dtype), out


@_kept_on_kernel
def km_partial(M, N, J_max):
    """Evaluator for the J_max-term partial sum of the N-th s-derivative of the
    series kernel; kept on M per (N, J_max)."""
    return BivariateKernel(M, N, J_max)


# ---------------------------------------------------------------------------
# kernel specification strings
# ---------------------------------------------------------------------------

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_RE = re.compile(rf"^{_NUM}$")
_TPOW_RE = re.compile(r"^t(?:\^(\d+))?$")
_FUNC_RE = re.compile(rf"^(exp|cos|sin)\(\s*(?:({_NUM})\s*\*?\s*)?([+-]?)t\s*\)$")


def _split_top(s, sep):
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


class KernelParseError(ValueError):
    """Raised with the offending fragment when a kernel string is malformed."""


def _parse_factor(tok):
    """Return (coeff, power, rate, freq, phase-or-None) delta for one factor."""
    tok = tok.strip()
    if _NUM_RE.match(tok):
        return (float(tok), 0, 0.0, 0.0, None)
    m = _TPOW_RE.match(tok)
    if m:
        return (1.0, int(m.group(1) or 1), 0.0, 0.0, None)
    m = _FUNC_RE.match(tok)
    if m:
        fn, num, sign = m.group(1), m.group(2), m.group(3)
        val = float(num) if num else 1.0
        if sign == "-":
            val = -val
        if fn == "exp":
            return (1.0, 0, val, 0.0, None)
        return (1.0, 0, 0.0, val, fn)
    raise KernelParseError(f"unrecognized factor {tok!r}")


def parse_kernel(text):
    """Parse a kernel specification string into an ExpPolyFn.

    Grammar: terms joined by '+', each term a '*'-product of factors drawn
    from  <number> | t | t^m | exp(a*t) | cos(b*t) | sin(b*t).
    Examples: "1", "exp(-1*t)", "t^2*exp(0.5*t)*cos(2*t)", "0".
    """
    text = text.strip()
    if not text:
        raise KernelParseError("empty kernel string")
    terms = []
    for pos, chunk in enumerate(_split_top(text, "+")):
        chunk = chunk.strip()
        if not chunk:
            raise KernelParseError(f"empty term at position {pos} in {text!r}")
        coeff, power, rate, freq, phase = 1.0, 0, 0.0, 0.0, None
        if chunk.startswith("-") and not chunk[1:2].isdigit() and chunk[1:2] != ".":
            coeff = -1.0
            chunk = chunk[1:]
        for tok in _split_top(chunk, "*"):
            try:
                c, dm, da, db, ph = _parse_factor(tok)
            except KernelParseError as e:
                raise KernelParseError(f"term {pos}: {e}") from None
            coeff *= c
            power += dm
            rate += da
            if ph is not None:
                if phase is not None:
                    raise KernelParseError(
                        f"term {pos}: more than one cos/sin factor in {chunk!r}"
                    )
                phase = ph
                freq = db
        terms.append((coeff, power, rate, freq, phase or "cos"))
    return ExpPolyFn(terms)


def _fmt_float(x):
    return repr(float(x))


def format_kernel(f):
    """Canonical printer; the output parses back to an eval-identical function."""
    if f.is_zero():
        return "0"
    parts = []
    for T in f.terms:
        factors = [_fmt_float(T.coeff)]
        if T.power == 1:
            factors.append("t")
        elif T.power > 1:
            factors.append(f"t^{T.power}")
        if T.rate != 0.0:
            factors.append(f"exp({_fmt_float(T.rate)}*t)")
        if T.freq != 0.0:
            factors.append(f"{T.phase}({_fmt_float(T.freq)}*t)")
        parts.append("*".join(factors))
    return " + ".join(parts)
