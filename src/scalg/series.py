"""Poincare series arithmetic: truncated integer series with coefficientwise
order, closed forms in characteristic zero, the log_p(1 - p^{-t}) transform,
and the growth-law comparison table.

Coefficients are exact nonnegative integers up to a stated truncation
order.  The transform phi is evaluated from the truncated data as a partial
sum, hence always a certified lower bound; a stabilization indicator says
whether the tail is numerically negligible at the evaluation point, and
nothing beyond the truncation is ever asserted.
"""

from __future__ import annotations

import math

from .exactfield import FieldSpec
from .simplicial import GradedDims
from .symalg import sphere_homotopy


class SeriesError(ValueError):
    """A series computation cannot proceed."""


class SeriesInputError(SeriesError):
    """Input rejected outright: no larger truncation or budget would make
    it computable, so the CLI reports it as invalid, not inconclusive."""


# phi_eval calls a partial sum stabilized when its estimated tail is at most
# this fraction of the value
STABILIZATION_TOLERANCE = 1e-3


class ClosedForm:
    """Rational-function descriptor: constant * prod over (n, e) factors of
    (1 - t^n)^e for e < 0 and (1 + t^n)^e for e > 0."""

    __slots__ = ("constant", "factors")

    def __init__(self, constant=1, factors=()):
        if constant < 0:
            raise SeriesError("closed form constant must be nonnegative")
        self.constant = int(constant)
        self.factors = tuple((int(n), int(e)) for n, e in factors)
        for n, e in self.factors:
            if n < 1 or e == 0:
                raise SeriesError("bad closed form factor (%d, %d)" % (n, e))

    def expand(self, upto):
        coeffs = [self.constant] + [0] * upto
        for n, e in self.factors:
            if e > 0:
                for _ in range(e):
                    for i in range(upto, n - 1, -1):
                        coeffs[i] += coeffs[i - n]
            else:
                for _ in range(-e):
                    for i in range(n, upto + 1):
                        coeffs[i] += coeffs[i - n]
        return coeffs

    def value_at(self, x):
        """Evaluate at a real point inside the disc of convergence."""
        out = float(self.constant)
        for n, e in self.factors:
            base = 1.0 - x**n if e < 0 else 1.0 + x**n
            out *= base**e
        return out

    def combine(self, other):
        return ClosedForm(self.constant * other.constant,
                          self.factors + other.factors)

    def to_json_dict(self):
        return {"constant": self.constant,
                "factors": [[n, e] for n, e in self.factors]}

    def __eq__(self, other):
        return (isinstance(other, ClosedForm)
                and self.constant == other.constant
                and sorted(self.factors) == sorted(other.factors))

    def __repr__(self):
        return "ClosedForm(%d, %r)" % (self.constant, self.factors)


class TruncatedSeries:
    """Integer power series known through a stated truncation order."""

    __slots__ = ("coeffs", "closed_form")

    def __init__(self, coeffs, closed_form=None):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs:
            raise SeriesError("series needs at least the constant term")
        if any(c < 0 for c in coeffs):
            raise SeriesError("series coefficients must be nonnegative")
        if closed_form is not None:
            if closed_form.expand(len(coeffs) - 1) != list(coeffs):
                raise SeriesError("closed form does not reproduce coefficients")
        self.coeffs = coeffs
        self.closed_form = closed_form

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        if i < 0:
            raise IndexError
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def to_json_dict(self):
        out = {"coeffs": list(self.coeffs), "truncation": self.truncation}
        if self.closed_form is not None:
            out["closed_form"] = self.closed_form.to_json_dict()
        return out

    def __repr__(self):
        return "TruncatedSeries(%r)" % (self.coeffs,)


def unit_series(M):
    return TruncatedSeries((1,) + (0,) * M, ClosedForm(1))


def from_dims(dims, M=None):
    """Series through degree M (by default a list's last index) of a list
    or a GradedDims of dimensions."""
    if isinstance(dims, GradedDims):
        if M is None:
            raise SeriesError("a GradedDims needs a truncation M")
        return TruncatedSeries(dims.to_list(M))
    if M is None:
        M = len(dims) - 1
    return TruncatedSeries([dims[i] if i < len(dims) else 0 for i in range(M + 1)])


def mul(f, g):
    """Cauchy product, truncated at the smaller truncation order."""
    M = min(f.truncation, g.truncation)
    out = GradedDims(enumerate(f.coeffs)).convolve(
        GradedDims(enumerate(g.coeffs)), upto=M)
    cf = None
    if f.closed_form is not None and g.closed_form is not None:
        cf = f.closed_form.combine(g.closed_form)
    return TruncatedSeries(out.to_list(M), cf)


def leq(f, g):
    """Coefficientwise order: f <= g where f is known, g known at least as far."""
    ok, _ = leq_report(f, g)
    return ok


def leq_report(f, g):
    """(holds, first violating index or None) for leq(f, g).

    A coefficient of f beyond the truncation of g is not known to be
    bounded, so it violates the order; this keeps leq transitive.
    """
    for i in range(min(f.truncation, g.truncation) + 1):
        if f[i] > g[i]:
            return False, i
    if f.truncation > g.truncation:
        return False, g.truncation + 1
    return True, None


def sphere_series_char0(q, n, M):
    """Series of the free graded-commutative algebra on q degree-n classes.

    (1 - t^n)^{-q} for n even (polynomial generators), (1 + t^n)^q for n
    odd (exterior generators); the closed form tag is always set.  No
    generators (q = 0) give the unit series, as in sphere_series_charp.
    """
    if q < 0 or n < 1:
        raise SeriesError("need q >= 0 and n >= 1")
    if q == 0:
        return unit_series(M)
    cf = ClosedForm(1, (((n, -q),) if n % 2 == 0 else ((n, q),)))
    return TruncatedSeries(cf.expand(M), cf)


def sphere_series_charp(q, n, p, M, W=None):
    """Series of the sphere algebra in characteristic p, read off
    sphere_homotopy (decalage and Kunneth, one weight at a time, no closed
    form assumed).

    Only degrees whose weight-stability was established are kept, so the
    returned truncation can be shorter than requested.  That is a signal,
    not an error.  For n > M the series is 1 through M, with no weight
    computed: no weight d >= 1 has chains below level n.
    """
    field = FieldSpec(p)
    if p == 0:
        raise SeriesInputError("use the closed forms in characteristic zero")
    if n < 1:
        raise SeriesInputError("spheres need n >= 1")
    if q == 0:
        return unit_series(M)
    if n > M:
        return TruncatedSeries([1] + [0] * M)
    if W is None:
        W = M
    report = sphere_homotopy(field, q, n, max(n, M + 1), W)
    good = min(report.certified_degree, report.stable_through())
    good = min(good, M)
    if good < 0:
        raise SeriesError("no certified coefficients at these budgets")
    return TruncatedSeries(report.dims[: good + 1])


class PhiValue:
    """Value of the transform at one point: a certified lower bound plus a
    stabilization indicator for the discarded tail."""

    __slots__ = ("value", "stabilized", "terms", "tail_estimate")

    def __init__(self, value, stabilized, terms, tail_estimate):
        self.value = value
        self.stabilized = stabilized
        self.terms = terms
        self.tail_estimate = tail_estimate

    def __repr__(self):
        return "PhiValue(%.6f, stabilized=%s)" % (self.value, self.stabilized)


def phi_eval(series, p, t):
    """log_p of the partial sum of the series at x = 1 - p^{-t}.

    Coefficients are nonnegative, so partial sums increase with the
    truncation order and the result is a lower bound for the true value.
    The stabilization flag compares against the exact closed form when one
    is attached, otherwise against a geometric tail estimate driven by the
    last coefficients.
    """
    if t <= 0:
        raise SeriesInputError("the transform needs t > 0")
    if p < 2:
        raise SeriesInputError("p must be at least 2")
    x = 1.0 - p ** (-float(t))
    partial = 0.0
    for i, c in enumerate(series.coeffs):
        partial += c * x**i
    M = series.truncation
    if series.closed_form is not None:
        exact = series.closed_form.value_at(x)
        tail = max(exact - partial, 0.0)
        stabilized = exact > 0 and tail <= STABILIZATION_TOLERANCE * exact
    else:
        recent = max(series.coeffs[-3:]) if len(series.coeffs) >= 3 else max(
            series.coeffs
        )
        tail = recent * x ** (M + 1) / (1.0 - x) if x < 1 else float("inf")
        stabilized = partial > 0 and tail <= STABILIZATION_TOLERANCE * partial
    if partial <= 0:
        raise SeriesError("partial sum is not positive; cannot take log")
    value = math.log(partial) / math.log(p)
    return PhiValue(value, bool(stabilized), M + 1, tail)


def growth_term(q, n):
    """(exponent, numerator, denominator) of the growth-law term
    q * t^(n-1) / (n-1)! of the transformed sphere factor theta(q, n)."""
    return n - 1, q, math.factorial(n - 1)


def reference_growth(q, n, t):
    """The growth-law reference term q * t^(n-1) / (n-1)!, in floats."""
    exponent, q, den = growth_term(q, n)
    return q * float(t) ** exponent / den


class AsymptoticRow:
    __slots__ = ("t", "phi", "reference", "ratio", "stabilized")

    def __init__(self, t, phi, reference, ratio, stabilized):
        self.t = t
        self.phi = phi
        self.reference = reference
        self.ratio = ratio
        self.stabilized = stabilized


class AsymptoticReport:
    def __init__(self, q, n, p, truncation, rows):
        self.q = q
        self.n = n
        self.p = p
        self.truncation = truncation
        self.rows = rows

    def monotone_toward_one(self):
        """Ratios on the stabilized prefix are nondecreasing and below 1+eps."""
        rows = []
        for r in self.rows:
            if not r.stabilized:
                break
            rows.append(r)
        ratios = [r.ratio for r in rows]
        increasing = all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
        return increasing and all(r2 <= 1.0 + 1e-9 for r2 in ratios)

    def inconclusive_from(self):
        """First sample whose tail was not stabilized, None if all were."""
        for r in self.rows:
            if not r.stabilized:
                return r.t
        return None

    def to_csv(self):
        lines = ["t,phi,reference,ratio,stabilized"]
        for r in self.rows:
            lines.append(
                "%s,%.12g,%.12g,%.12g,%s"
                % (r.t, r.phi, r.reference, r.ratio, str(r.stabilized).lower())
            )
        return "\n".join(lines) + "\n"


def asymptotic_check(q, n, p, t_samples, M=6):
    """Table of phi against the growth reference over the sample points.

    Reports the trend; asserts nothing beyond the computed truncation.  For
    n = 1 the reference is the constant q and the ratio column is phi / q.
    """
    if q < 1 or n < 1:
        raise SeriesInputError("need q >= 1 and n >= 1")
    series = sphere_series_charp(q, n, p, M)
    rows = []
    for t in t_samples:
        pv = phi_eval(series, p, t)
        try:
            ref = reference_growth(q, n, t)
        except OverflowError:  # t^(n-1) or (n-1)! past the float range
            raise SeriesInputError("the growth reference at t = %r is out of "
                                   "float range" % (t,))
        if ref == 0:
            raise SeriesInputError("the growth reference underflows to 0 at "
                                   "t = %r" % (t,))
        ratio = pv.value / ref
        rows.append(AsymptoticRow(t, pv.value, ref, ratio, pv.stabilized))
    return AsymptoticReport(q, n, p, series.truncation, rows)
