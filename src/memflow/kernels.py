"""Exact algebra of exponential polynomials.

Memory kernels and everything derived from them (derivatives, convolution
powers, the coefficient sequences of the flow decomposition, the bivariate
series kernel) live in the family

    f(t) = sum_k  c_k * t^{m_k} * exp(a_k t) * {cos, sin}(b_k t),

which is closed under differentiation, pointwise products and finite
convolution on [0, inf).  All values are immutable and all operations pure.

An ExpPolyFn stores one form: the distinct rates z and an array C[z, m] with

    f(t) = Re sum_z e^{z t} sum_m C[z, m] t^m.

Rates have Im z >= 0 (a conjugate pair is folded into one rate, its
coefficient doubled) and are sorted by (Re z, Im z); C is real when every
rate is.  At z = a + ib the cos and sin coefficients of t^m e^{a t} are
Re C[z, m] and -Im C[z, m].  Sums, derivatives, products and convolutions
work on these rows; (c, m, a, b, phase) tuples are only what the
constructors take and what the printer writes.  The series kernel
K(t, s) = sum_j ((-s)^j / j!) M^{*j}(t-s) folds its terms into one array
C[z, p, m] over (s^p / p!) (t-s)^m, on which d/ds is exact.  The flow
decomposition is integration by parts in s: h_l(t) = d^l/ds^l K(t, 0),
p_l(t) = -d^l/ds^l K(t, t), and R_N integrates d^N/ds^N K.  The stepper's
memory recurrence reads the rows.  The objects derived from a kernel
(convolution powers, h_l, p_l, ``km_partial``, the C^N norms) are kept in a
memo on the kernel and live as long as it does.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

__all__ = [
    "ExpPolyFn",
    "KernelParseError",
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

# Relative magnitude below which a coefficient is treated as cancellation noise.
CANCEL_TOL = 1e-15


class TruncationError(Exception):
    """Partial-sum tail bound exceeds the caller tolerance."""


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


class ExpPolyFn:
    """A real exponential polynomial, stored as the rows (rates, C) of the
    module docstring.

    Stored form: no two rows share a rate, cos and sin coefficients at or
    below 1e-15 of the largest one are dropped (resonant convolutions
    generate near-cancelling pairs), and there are no zero rows and no
    trailing zero columns.  ``ExpPolyFn(terms)`` takes tuples
    (c, m, a, b, phase), each the term c t^m e^{a t} phase(b t) with phase
    "cos" or "sin".
    """

    __slots__ = ("rates", "C", "_memo")

    def __init__(self, terms=()):
        rows = []
        for c, m, a, b, phase in terms:
            row = np.zeros(int(m) + 1, dtype=complex)
            row[-1] = -1j * c if phase == "sin" else c
            rows.append((complex(a, b), row))
        self._store(rows)

    @staticmethod
    def _of_rows(rows):
        f = object.__new__(ExpPolyFn)
        f._store(rows)
        return f

    def _store(self, rows):
        """Set the stored form of sum Re e^{z t} sum_m row[m] t^m over the
        (z, row) pairs, which may repeat a rate or have Im z < 0."""
        rows = list(rows)
        rates = np.array([z for z, _ in rows], dtype=complex)
        C = np.zeros((len(rows), max((len(row) for _, row in rows), default=1)),
                     dtype=complex)
        for k, (_, row) in enumerate(rows):
            C[k, :len(row)] = row
        low = rates.imag < 0.0  # Re(c e^{conj(z) t}) = Re(conj(c) e^{z t})
        rates[low], C[low] = rates[low].conj(), C[low].conj()
        C.imag[rates.imag == 0.0] = 0.0
        rates, slot = np.unique(rates, return_inverse=True)
        packed, C = C, np.zeros((len(rates), C.shape[1]), dtype=complex)
        np.add.at(C, slot, packed)
        cos, sin = C.real, C.imag  # views: Re C and -Im C are the cos and sin terms
        tol = CANCEL_TOL * max(np.abs(cos).max(initial=0.0), np.abs(sin).max(initial=0.0))
        cos[np.abs(cos) <= tol] = sin[np.abs(sin) <= tol] = 0.0
        live = C.any(axis=1)
        cols = np.flatnonzero(C.any(axis=0))
        rates, C = rates[live], C[live, :cols[-1] + 1 if cols.size else 1]
        if not rates.imag.any():
            rates, C = rates.real.copy(), C.real.copy()
        rates.flags.writeable = C.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "C", C)
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
        return self.rates.size == 0

    def eval(self, t):
        return _eval_compiled(self.rates, self.C[:, None, :], t)

    __call__ = eval

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = ExpPolyFn.const(other)
        return ExpPolyFn._of_rows([*zip(self.rates, self.C), *zip(other.rates, other.C)])

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ExpPolyFn._of_rows(zip(self.rates, other * self.C))
        # Re(F) g = Re(F g) for real g: rates add, coefficient rows multiply
        return ExpPolyFn._of_rows((z + w, np.convolve(a, b))
                                  for z, a in zip(self.rates, self.C)
                                  for w, b in _unfolded(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"ExpPolyFn({format_kernel(self)!r})"

    # -- calculus ------------------------------------------------------------

    @_kept_on_kernel
    def derivative(self, k=1):
        """Exact k-th derivative: C'[z, m] = z C[z, m] + (m+1) C[z, m+1]."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if k == 0:
            return self
        f = self.derivative(k - 1)
        C = f.rates[:, None] * f.C
        C[:, :-1] += np.arange(1, C.shape[1]) * f.C[:, 1:]
        return ExpPolyFn._of_rows(zip(f.rates, C))

    def convolve(self, other):
        """Exact convolution (f*g)(t) = int_0^t f(t-u) g(u) du.

        Closed in the family: Re(F) * g = Re(F * g) for real g, so each row
        of f meets each row of g and its conjugate once.  Coinciding rates
        (resonance) raise the power of t instead of dividing by a vanishing
        rate gap.
        """
        return ExpPolyFn._of_rows(row for z, a in zip(self.rates, self.C)
                                  for w, b in _unfolded(other)
                                  for row in _conv_rows(z, a, w, b))


def _unfolded(g):
    """Rows (w, b) of g with sum_w e^{w t} b(t) = g(t): each complex row
    split into itself and its conjugate, each with half the coefficient."""
    for w, b in zip(g.rates, g.C):
        if w.imag == 0.0:
            yield w, b
        else:
            yield w, 0.5 * b
            yield w.conjugate(), 0.5 * b.conj()


@functools.cache
def _pascal(size):
    """Read-only table of the binomials C(i, j), i, j < size, as floats."""
    table = np.array([[math.comb(i, j) for j in range(size)] for i in range(size)],
                     dtype=float)
    table.flags.writeable = False
    return table


def _binomials(n):
    """A table of the binomials C(i, j) for i, j < n at least; its size is a
    power of two, so the cache holds a few tables."""
    return _pascal(max(64, 1 << (n - 1).bit_length()))


def _conv_rows(z1, a, z2, b):
    """Rows of (e^{z1 t} a(t)) * (e^{z2 t} b(t)) with the polynomials
    a(t) = sum_p a[p] t^p and b(t) = sum_q b[q] t^q.

    Rates closer than 1e-12 (relative) are resonant: t^p * t^q under e^{z1 t}
    is p! q! / (p+q+1)! t^(p+q+1).  Otherwise the result is the partial-fraction
    principal parts at z1 and z2.  Rate gaps that are tiny but above that
    threshold are inherently ill-conditioned in this representation (the
    closed form divides by powers of the gap).
    """
    if abs(z2 - z1) <= 1e-12 * max(1.0, abs(z1), abs(z2)):
        p, q = np.arange(len(a))[:, None], np.arange(len(b))
        r = np.zeros(len(a) + len(b), dtype=np.result_type(a, b))
        np.add.at(r, p + q + 1, np.outer(a, b) / (
            (p + q + 1) * _binomials(len(a) + len(b))[p + q, p]))
        return [(z1, r)]
    return [(z1, _principal_part(a, b, z1 - z2)), (z2, _principal_part(b, a, z2 - z1))]


def _principal_part(a, b, w):
    """Row at z1 of the convolution of _conv_rows, w = z1 - z2 != 0:

        r[n] = sum_k C(n+k, k) a[n+k] (-1)^k sum_q b[q] (q+k)! / w^(q+k+1),

    the Laplace principal part of the two factors at z1 (the second one
    expanded in powers of s - z1).
    """
    P, Q = len(a), len(b)
    ratios = np.arange(P + Q - 1) / w
    ratios[0] = 1.0 / w
    v = np.cumprod(ratios)  # v[i] = i! / w^(i+1), never forming i! alone
    k = np.arange(P)
    h = (-1.0) ** k * (v[k[:, None] + np.arange(Q)] @ b)
    nk = k[:, None] + k
    return (_binomials(2 * P)[nk, k] * np.concatenate([a, np.zeros(P)])[nk]) @ h


def _eval_compiled(rates, C, u, s=0.0):
    """Re sum_z e^{z u} sum_{p,m} C[z, p, m] (s^p / p!) u^m, elementwise over
    the broadcast of u and s; a float for scalar input."""
    u, s = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(s, dtype=float))
    shape, u, s = u.shape, u.ravel(), s.ravel()
    n_z, n_p, n_m = C.shape
    poly = (C.reshape(-1, n_m) @ u ** np.arange(n_m)[:, None]).reshape(n_z, n_p, len(u))
    p = np.arange(n_p)[:, None]
    out = np.einsum("zpn,pn,zn->n", poly, s ** p / np.cumprod(np.maximum(p, 1.0), axis=0),
                    np.exp(np.multiply.outer(rates, u))).real
    return out.reshape(shape) if shape else float(out[0])


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
    order l+1, h_l(t) = d^l/ds^l K(t, 0), where the series terms past the l-th
    vanish.  h_0 is identically zero; h_1 = -M."""
    if l < 0:
        raise ValueError("l must be >= 0")
    rates, C = BivariateKernel(M, l, max(l, 1))._form  # K(t, 0) = 0
    return ExpPolyFn._of_rows(zip(rates, C[:, 0]))


@_kept_on_kernel
def p_coeff(M, l):
    """Polynomial coefficient of the smoothing (heat-like) flow part at order l+1,
    p_l(t) = -d^l/ds^l K(t, s) at s = t, summed term by term:

        p_l(t) = (-1)^(l+1) sum_j sum_m C(l, d) (M^{*j})^(d)(0) (-t)^m / m!,

    d = l - j + m, over 1 <= j <= l+1 and max(0, 2j - l - 1) <= m <= j.  Its
    constant (m = 0) comes from this sum alone, so p_l(0) = -h_l(0) is a
    check between two separate computations.  The sum skips the
    (M^{*j})^(d)(0), d < j - 1, that vanish analytically; read off the folded
    K at u = 0 they add roundoff (on exp(-t) + t^4 e^{-2t}, l <= 7, 1.3e-13 of
    the top coefficient off an exact reference, not 4.5e-14).
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    out = ExpPolyFn.zero()
    sign = float((-1) ** (l + 1))
    for j in range(1, l + 2):
        Fj = conv_power(M, j)
        for m in range(max(0, 2 * j - l - 1), j + 1):
            d = l - j + m  # in [0, l]
            val = math.comb(l, d) * Fj.derivative(d).eval(0.0)
            if val != 0.0:
                out = out + ExpPolyFn.term(
                    sign * val * (-1.0) ** m / math.factorial(m), power=m
                )
    return out


# ---------------------------------------------------------------------------
# C^N-type norm: sum over derivative orders of sup |M^(k)| on [0, t]
# ---------------------------------------------------------------------------

def _max_abs(f, lo, hi):
    """sup |f| on [lo, hi] by dense sampling, refined by resampling the
    bracket around the best sample as densely (each pass narrows it by a
    factor samples/2 = 512, so four passes place the maximum to ~1e-11 of the
    interval, and its value, a quadratic there, to roundoff)."""
    if hi <= lo:
        return abs(f.eval(lo))
    samples, best = 1024, 0.0
    for _ in range(4):
        xs = np.linspace(lo, hi, samples + 1)
        vals = np.abs(f.eval(xs))
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, samples)]
    return best


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

    The J = ``truncation_order`` terms fold into one compiled array C[z, p, m]
    over (s^p / p!) (t-s)^m, which ``_s_derivative`` differentiates exactly.
    Read off it are h_l(t) = d^l/ds^l K(t, 0) (``h_coeff``) and the remainder
    R_N = int eta e^{-eta s} d^N/ds^N K ds; p_l(t) = -d^l/ds^l K(t, t) is
    summed term by term (``p_coeff``).  A computable tail bound controls the
    truncation.
    """

    def __init__(self, M, deriv_order, truncation_order):
        if truncation_order < 1:
            raise ValueError("truncation_order must be >= 1")
        if deriv_order < 0:
            raise ValueError("deriv_order must be >= 0")
        self.M = M
        self.deriv_order = int(deriv_order)
        self.truncation_order = int(truncation_order)
        # pieces[j-1] = (scalar, s_power, ExpPolyFn in t-s) of term j
        self.pieces = [((-1.0) ** j, j, conv_power(M, j)) for j in range(1, truncation_order + 1)]
        self._form = _s_derivative(_fold(self.pieces), self.deriv_order)

    def eval(self, t, s):
        """Partial-sum value at (t, s); s may be an array (with scalar t)."""
        s = np.asarray(s, dtype=float)
        return _eval_compiled(*self._form, t - s, s)

    def eval_abs(self, t, s):
        """Sum of the moduli of the folded terms at (t, s), the scale of the
        rounding in ``eval``; s may be an array (with scalar t)."""
        s = np.asarray(s, dtype=float)
        rates, C = self._form
        return _eval_compiled(rates.real, np.abs(C), t - s, s)

    def term_value(self, j, t, s):
        """Value of the j-th series term alone (1-based j)."""
        s = np.asarray(s, dtype=float)
        form = _s_derivative(_fold([self.pieces[j - 1]]), self.deriv_order)
        return _eval_compiled(*form, t - s, s)

    def _term_bound(self, j, t, s):
        # |term_j| <= 2^N * max_i s^{j-i}/(j-i)! * (cbar (1+t))^j where cbar is
        # the C^N-type norm of M on [0, t]; the growth factor follows from the
        # recursion max-norm(M * g) <= cbar (1+t) max-norm(g).
        N = self.deriv_order
        cnorm = kernel_c_norm(self.M, N, t) if t > 0 else abs(self.M.eval(0.0))
        g = cnorm * (1.0 + t)
        if g == 0.0:
            return 0.0
        best = max(s ** (j - i) / math.factorial(j - i) for i in range(min(N, j) + 1))
        return 2.0**N * best * g**j

    def tail_bound(self, t, s):
        """Upper bound on the absolute truncation error at (t, s)."""
        s = float(np.max(np.asarray(s, dtype=float)))
        if s == 0.0:
            return 0.0
        total, prev = 0.0, None
        for j in range(self.truncation_order + 1, self.truncation_order + 400):
            b = self._term_bound(j, t, s)
            if prev is not None and b < 0.5 * prev:
                return total + b / (1.0 - b / prev)  # geometric from here on
            total, prev = total + b, b
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
            raise TruncationError(f"tail bound {bound:.3e} exceeds tolerance {tol:.3e} "
                                  f"at (t={t}, s={s}); raise truncation_order")
        return self.eval(t, s)


def _fold(pieces):
    """Compiled (rates, C[z, p, m]) of sum scal * (s^p / p!) * f(u) over the
    pieces (scal, p, f), with u = t - s."""
    index = {z: k for k, z in enumerate(dict.fromkeys(z for *_, f in pieces for z in f.rates))}
    out = np.zeros((len(index), 1 + max(p for _, p, _ in pieces),
                    max(f.C.shape[1] for *_, f in pieces)),
                   dtype=np.result_type(*(f.C for *_, f in pieces)))
    for scal, p, f in pieces:
        out[[index[z] for z in f.rates], p, :f.C.shape[1]] += scal * f.C
    return np.array(list(index), dtype=out.dtype), out


def _s_derivative(form, n):
    """n-th d/ds at fixed t of a form (rates, C[z, p, m]) over (s^p / p!) u^m e^{zu},
    u = t - s: C'[z, p, m] = C[z, p+1, m] - (m+1) C[z, p, m+1] - z C[z, p, m], exact
    and of the same shape (d/ds shifts p, so the terms keep their exact +-1)."""
    rates, C = form
    for _ in range(n):
        D = -rates[:, None, None] * C
        D[:, :-1] += C[:, 1:]
        D[:, :, :-1] -= np.arange(1, C.shape[2]) * C[:, :, 1:]
        C = D
    return rates, C


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
        if not all(map(math.isfinite, (coeff, rate, freq))):
            raise KernelParseError(f"term {pos}: non-finite number in {chunk!r}")
        terms.append((coeff, power, rate, freq, phase or "cos"))
    return ExpPolyFn(terms)


def format_kernel(f):
    """Canonical printer, terms in (power, rate, freq, phase) order; the output
    parses back to an eval-identical function."""
    terms = sorted((m, float(z.real), float(z.imag), phase, coeff)
                   for z, row in zip(f.rates, f.C) for m, c in enumerate(row)
                   for phase, coeff in (("cos", c.real), ("sin", -c.imag)) if coeff != 0.0)
    parts = []
    for power, rate, freq, phase, coeff in terms:
        factors = [repr(float(coeff))]
        if power == 1:
            factors.append("t")
        elif power > 1:
            factors.append(f"t^{power}")
        if rate != 0.0:
            factors.append(f"exp({float(rate)!r}*t)")
        if freq != 0.0:
            factors.append(f"{phase}({float(freq)!r}*t)")
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"
