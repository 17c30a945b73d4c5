"""The boundedness audit: from a homology profile of a connected algebra,
derive the series inequality chain through its connected envelopes and
exhibit the numeric contradiction that forces the profile down to degree
one in positive characteristic.

An EnvelopeProfile records q_s = dim H^Q_s together with a finite bound D
on the homotopy Poincare series values.  Stage s of the envelope tower
contributes a sphere-series factor theta(q_s, s+1, t); the product bounds
the split top series theta(q_{n-1}, n-1, t) * theta(q_n, n, t) by
D * prod(factors).  After the log_p(1 - p^{-t}) change of variables the
growth law turns both sides into polynomials in t, the left of degree n-1
with positive leading coefficient, the right of degree at most n-2: for
n > 1 the inequality fails for large t, and the audit exhibits an exact
integer witness.  For n = 1 there is nothing to contradict and the profile
is consistent.

The tower is listed once, as (q, degree) sphere factors, and each call
fills one table with the series of each distinct factor, so a factor that
is both a top factor and a stage factor is computed once.

Asymptotic mode replaces each transform by its leading polynomial, which
is the shape of the argument itself.  Empirical mode evaluates the
transforms from certified truncated series instead; its right-hand side is
a partial-sum proxy, so it reports a witness only when every proxy term
stabilized, and says "inconclusive at current truncation" otherwise.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

from .exactfield import FieldSpec
from .series import (
    SeriesError,
    growth_term,
    mul,
    phi_eval,
    sphere_series_char0,
    sphere_series_charp,
)


class ProfileError(ValueError):
    pass


UNBOUNDED = None

# asymptotic mode looks for a witness on the doubling grid 1, 2, 4, ... up
# to GRID_LIMIT and then bisects; empirical mode samples the grid's first
# eight points unless given t samples
GRID_LIMIT = 2**40


class EnvelopeProfile:
    """Homology dimension profile {s: q_s} of a connected algebra, with an
    optional finite bound D on the values of its homotopy series.

    Zero dimensions are dropped, so the top degree carries a positive one;
    when the ground field has characteristic p and D is finite, D > p is
    required.
    """

    def __init__(self, field, dims, pi_bound=UNBOUNDED):
        if not isinstance(field, FieldSpec):
            field = FieldSpec(field)
        self.field = field
        clean = {}
        for s, q in dict(dims).items():
            s = int(s)
            q = int(q)
            if s < 1:
                raise ProfileError("profile degrees start at 1")
            if q < 0:
                raise ProfileError("negative dimension in profile")
            if q:
                clean[s] = q
        self.dims = clean
        self.pi_bound = pi_bound
        if pi_bound is not UNBOUNDED:
            if int(pi_bound) != pi_bound or pi_bound <= 0:
                raise ProfileError("pi bound must be a positive integer")
            self.pi_bound = int(pi_bound)
            p = self.field.characteristic
            if p != 0 and self.pi_bound <= p:
                raise ProfileError(
                    "a finite bound must exceed the characteristic (D > p)"
                )

    @property
    def top(self):
        return max(self.dims) if self.dims else 0

    def __getitem__(self, s):
        return self.dims.get(s, 0)

    def is_empty(self):
        return not self.dims

    def to_json_dict(self):
        return {
            "characteristic": self.field.characteristic,
            "dims": {str(s): q for s, q in sorted(self.dims.items())},
            "pi_bound": self.pi_bound,
        }

    def __repr__(self):
        return "EnvelopeProfile(char=%d, %r, D=%r)" % (
            self.field.characteristic,
            self.dims,
            self.pi_bound,
        )


def _tower(profile):
    """The envelope tower of a profile with top n as sphere factors
    (q, degree): the split top pair theta(q_{n-1}, n-1), theta(q_n, n), and
    the stage factors theta(q_s, s+1) for s = 1..n-2."""
    n = profile.top
    top = [(profile[n - 1], n - 1), (profile[n], n)]
    stages = [(profile[s], s + 1) for s in range(1, n - 1)]
    return top, stages


def _theta(table, profile, factor, M):
    """theta of the sphere factor (q, degree), computed once per table: the
    closed form rationally, sphere_homotopy's weights by decalage in
    characteristic p (either gives the unit series for q = 0)."""
    if factor not in table:
        q, degree = factor
        p = profile.field.characteristic
        if p == 0:
            table[factor] = sphere_series_char0(q, degree, M)
        else:
            table[factor] = sphere_series_charp(q, degree, p, M)
    return table[factor]


def _growth_term(factor):
    """(exponent, coefficient) of the leading term q/(d-1)! * t^(d-1) of the
    transformed sphere factor theta(q, d)."""
    exponent, q, den = growth_term(*factor)
    return exponent, Fraction(q, den)


class EnvelopeStage:
    """One cofibration stage of the envelope tower, at the series level:
    theta(stage s) <= theta(stage s-1) * factor, with the sphere factor
    materialized as a truncated series."""

    def __init__(self, s, q, degree, factor):
        self.s = s
        self.q = q
        self.degree = degree
        self.factor = factor


def envelope_chain(profile, M):
    """Stage inequalities s = 1..top-2 of the envelope tower, each carrying
    its sphere-series factor theta(q_s, s+1, t).

    Empty for top <= 2 (for top = 2 the product of factors is empty and
    the surviving inequality is theta(A(0)) <= theta(A)).  In positive
    characteristic a factor with no certified coefficients raises.
    """
    table = {}
    stages = []
    for q, degree in _tower(profile)[1]:
        s = degree - 1
        try:
            factor = _theta(table, profile, (q, degree), M)
        except SeriesError as exc:
            raise SeriesError(
                "stage %d factor has no certified truncation: %s" % (s, exc)
            )
        stages.append(EnvelopeStage(s, q, degree, factor))
    return stages


def splitting_series(profile, M):
    """The split product for the next-to-top envelope stage:
    theta(q_{n-1}, n-1, t) * theta(q_n, n, t), exact in certified range."""
    if profile.top < 2:
        raise ProfileError("splitting needs a profile with top degree >= 2")
    table = {}
    left, right = (_theta(table, profile, f, M) for f in _tower(profile)[0])
    return mul(left, right)


# --------------------------------------------------------------------------
# polynomials of the asymptotic argument


def _poly_eval(poly, t):
    return sum(c * Fraction(t) ** d for d, c in poly.items())


def growth_polynomials(profile):
    """Leading polynomials of the two sides after the change of variables.

    Left: q_{n-1}/(n-2)! * t^(n-2) + q_n/(n-1)! * t^(n-1).
    Right: log_p(D) + sum over 1 <= s <= n-2 of q_s/s! * t^s.
    Each is the sum of the growth terms of its nonzero sphere factors.
    The identification of the left coefficients is this module's reading
    of the growth law applied to the two top stages; it is recorded in
    every trace.
    """
    if profile.top < 2:
        raise ProfileError("polynomials only make sense for top degree >= 2")

    def poly(factors):
        return dict(_growth_term(f) for f in factors if f[0])

    top, stages = _tower(profile)
    return poly(top), poly(stages)


def _log2_brackets(x, k):
    """Integers lo, hi with lo <= k*log2(x) < hi, hi - lo small: the bit
    lengths of a lower and an upper bound of x**k, each computed by
    squaring with its mantissa rounded down, or up, to a few more bits
    than k has."""
    m = 64 + k.bit_length()
    brackets = []
    for up in (False, True):
        mant, exp = 1, 0
        for bit in bin(k)[2:]:
            mant, exp = mant * mant, 2 * exp
            if bit == "1":
                mant *= x
            extra = mant.bit_length() - m
            if extra > 0:
                mant = -(-mant >> extra) if up else mant >> extra
                exp += extra
        brackets.append(mant.bit_length() + exp - (0 if up else 1))
    return brackets


def _exceeds_log_bound(value, p, D):
    """Exact test value > log_p(D), that is p**num > D**den, for a rational
    value and a prime p, without computing either power: the one tie,
    D = p**e, compares exponents, and exact bit-length brackets decide
    every other case."""
    num, den = value.numerator, value.denominator
    if num <= 0:
        return False
    if D <= 1:  # log_p(D) <= 0 < value
        return True
    e, rest = 0, D
    while rest % p == 0:
        rest, e = rest // p, e + 1
    if rest == 1:  # D = p**e: the only case where the two powers can tie
        return num > e * den
    # brackets of num*log2(p) and den*log2(D) narrow as k doubles until
    # they separate, which they do since the powers differ
    k = 1
    while True:
        lo_p, hi_p = _log2_brackets(p, k)
        lo_D, hi_D = _log2_brackets(D, k)
        if num * lo_p >= den * hi_D:
            return True
        if num * hi_p <= den * lo_D:
            return False
        k *= 2


class AuditVerdict:
    """Outcome of the audit with a full, re-checkable trace."""

    def __init__(self, outcome, witness, trace):
        self.outcome = outcome  # consistent | contradiction | inconclusive
        self.witness = witness
        self.trace = trace

    def verify(self):
        """Re-evaluate both sides at the witness; True when LHS > RHS."""
        if self.outcome != "contradiction":
            return True
        t = self.witness
        mode = self.trace.get("mode")
        if mode == "asymptotic":
            lhs = {int(d): Fraction(c) for d, c in self.trace["lhs_poly"].items()}
            rhs = {int(d): Fraction(c) for d, c in self.trace["rhs_poly"].items()}
            p = self.trace["p"]
            D = self.trace["D"]
            diff = _poly_eval(lhs, t) - _poly_eval(rhs, t)
            return _exceeds_log_bound(diff, p, D)
        return self.trace["verification"]["lhs"] > self.trace["verification"]["rhs"]

    def to_json_dict(self):
        return {
            "outcome": self.outcome,
            "witness": None if self.witness is None else float(self.witness),
            "trace": self.trace,
        }

    def __repr__(self):
        return "AuditVerdict(%s, witness=%r)" % (self.outcome, self.witness)


@contextmanager
def _reported(n):
    """Turn a trace number that Python cannot print (an integer past the
    digit limit, ValueError) or hold as a float (OverflowError) into a
    ProfileError."""
    try:
        yield
    except (OverflowError, ValueError):
        raise ProfileError("top degree %d: the audit trace has numbers too "
                           "large to print; lower the top degree" % n)


def _trace_skeleton(profile, mode):
    return {
        "mode": mode,
        "profile": profile.to_json_dict(),
        "p": profile.field.characteristic,
        "D": profile.pi_bound,
        "n": profile.top,
        "reading_note": (
            "left coefficients materialized as q_{n-1}/(n-2)! and q_n/(n-1)!"
            " from the growth law applied to the two top stages"
        ),
    }


def serre_audit(profile, mode="asymptotic", t_samples=None, M=6):
    """Decide whether a bounded-homotopy algebra can carry this profile.

    Top degree 1 is consistent.  For top degree n > 1 the asymptotic mode
    compares the leading polynomials of the two sides of the envelope
    inequality and returns a contradiction with an exact integer witness
    found on the doubling grid up to GRID_LIMIT and refined downward by
    bisection.  Empirical mode evaluates the transforms from truncated
    series at the sample points (by default 1, 2, ..., 128) and claims a
    contradiction only when every right-hand partial sum stabilized;
    otherwise it is inconclusive at the current truncation.
    """
    if mode not in ("asymptotic", "empirical"):
        raise ProfileError("mode must be 'asymptotic' or 'empirical'")
    p = profile.field.characteristic
    if p == 0:
        raise ProfileError(
            "the audit needs characteristic p != 0; use rational_check"
        )
    if profile.pi_bound is UNBOUNDED:
        raise ProfileError("the audit needs a finite bound on the series")
    if profile.is_empty():
        return AuditVerdict("consistent", None, {
            **_trace_skeleton(profile, mode),
            "reason": "empty profile: the trivial algebra",
        })
    n = profile.top
    trace = _trace_skeleton(profile, mode)
    if n == 1:
        trace["reason"] = "top degree 1: nothing above the fundamental class"
        return AuditVerdict("consistent", None, trace)
    D = profile.pi_bound

    if mode == "asymptotic":
        lhs, rhs = growth_polynomials(profile)
        # the trace prints exact coefficients, and Python refuses to print
        # an integer past its digit limit (4300 by default): the size of
        # (n-1)! is checked here, before the witness search
        with _reported(n):
            trace["lhs_poly"] = {str(d): str(c) for d, c in lhs.items()}
            trace["rhs_poly"] = {str(d): str(c) for d, c in rhs.items()}
        trace["rhs_constant"] = "log_%d(%d)" % (p, D)
        trace["chain_stages"] = [
            {"stage": s, "growth_term": "%s*t^%d" % (c, s)}
            for s, c in rhs.items()
        ]

        def wins(t):
            diff = _poly_eval(lhs, t) - _poly_eval(rhs, t)
            return _exceeds_log_bound(diff, p, D)

        t = 1
        while t <= GRID_LIMIT and not wins(t):
            t *= 2
        if t > GRID_LIMIT:
            raise AssertionError(
                "no witness below the grid limit; the polynomial comparison "
                "is broken"
            )
        lo, hi = t // 2, t
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if wins(mid):
                hi = mid
            else:
                lo = mid
        witness = hi
        diff = _poly_eval(lhs, witness) - _poly_eval(rhs, witness)
        log_bound = math.log(D, p)
        with _reported(n):
            trace["verification"] = {
                "witness": witness,
                "lhs_value": float(_poly_eval(lhs, witness)),
                "rhs_value_without_log_term": float(_poly_eval(rhs, witness)),
                "comparison": "%d^%s > %d^%s" % (
                    p, diff.numerator, D, diff.denominator),
                "exact": True,
            }
            trace["evaluation_table"] = [
                {
                    "t": t_pt,
                    "lhs": float(_poly_eval(lhs, t_pt)),
                    "rhs": float(_poly_eval(rhs, t_pt)) + log_bound,
                    "lhs_exceeds": wins(t_pt),
                }
                for t_pt in sorted({max(1, witness // 2), witness, 2 * witness})
            ]
        verdict = AuditVerdict("contradiction", witness, trace)
        if not verdict.verify():
            raise AssertionError("witness failed re-verification")
        return verdict

    # empirical mode: evaluate transforms from certified truncations
    table = {}
    top, stages = _tower(profile)
    lhs_series = [_theta(table, profile, f, M) for f in top]
    stage_factors = [(degree - 1, _theta(table, profile, (q, degree), M))
                     for q, degree in stages]
    trace["chain_stages"] = [
        {"stage": s, "factor": f.to_json_dict()} for s, f in stage_factors
    ]
    if t_samples is None:
        t_samples = [2**k for k in range(8)]
    rows = []
    witness = None
    for t in t_samples:
        lhs_vals = [phi_eval(f, p, t) for f in lhs_series]
        rhs_vals = [phi_eval(f, p, t) for _, f in stage_factors]
        lhs_total = sum(v.value for v in lhs_vals)
        rhs_total = math.log(D, p) + sum(v.value for v in rhs_vals)
        rhs_stable = all(v.stabilized for v in rhs_vals)
        row = {
            "t": float(t),
            "lhs_lower_bound": lhs_total,
            "rhs_proxy": rhs_total,
            "rhs_stabilized": rhs_stable,
        }
        rows.append(row)
        if witness is None and lhs_total > rhs_total and rhs_stable:
            witness = t
            trace["verification"] = {
                "witness": float(t),
                "lhs": lhs_total,
                "rhs": rhs_total,
                "note": (
                    "lhs is a certified lower bound; rhs is a stabilized "
                    "partial-sum proxy"
                ),
            }
    trace["samples"] = rows
    if witness is not None:
        return AuditVerdict("contradiction", witness, trace)
    trace["reason"] = "inconclusive at current truncation"
    return AuditVerdict("inconclusive", None, trace)


class RationalVerdict:
    def __init__(self, outcome, justification):
        self.outcome = outcome
        self.justification = list(justification)

    def to_json_dict(self):
        return {"outcome": self.outcome, "justification": self.justification}

    def __repr__(self):
        return "RationalVerdict(%s)" % self.outcome


def rational_check(profile, pi_finite):
    """The rational counterpart: an even-concentrated bounded profile with
    finite homotopy forces the trivial algebra.

    Returns "consistent (trivial)" for the empty profile, "forced_empty"
    (i.e. no such algebra exists) for a nonempty even-degree profile with
    finite homotopy asserted, and "not_applicable" when an odd class is
    present or finiteness is not asserted.
    """
    if profile.field.characteristic != 0:
        raise ProfileError("rational check needs characteristic zero")
    if profile.is_empty():
        return RationalVerdict(
            "consistent",
            ["empty profile: the trivial algebra itself"],
        )
    odd = sorted(s for s in profile.dims if s % 2 == 1)
    if odd:
        return RationalVerdict(
            "not_applicable",
            ["odd-degree classes present at %s: even-concentration "
             "hypothesis fails (the power-cofiber family lives here)" % odd],
        )
    if not pi_finite:
        return RationalVerdict(
            "not_applicable",
            ["finite homotopy was not asserted"],
        )
    just = []
    for s in sorted(profile.dims):
        series = sphere_series_char0(profile[s], s, 2 * s)
        just.append(
            "an even class in degree %d contributes the polynomial series "
            "%s... whose coefficients never vanish" % (s, series.coeffs[: s + 1])
        )
    just.append(
        "finite total homotopy is impossible unless the profile is empty, "
        "so no such algebra exists"
    )
    return RationalVerdict("forced_empty", just)
