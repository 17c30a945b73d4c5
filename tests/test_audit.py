import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scalg.audit

from scalg.exactfield import QQ, GF2
from scalg.audit import (
    AuditVerdict,
    EnvelopeProfile,
    ProfileError,
    UNBOUNDED,
    envelope_chain,
    growth_polynomials,
    rational_check,
    serre_audit,
    splitting_series,
)
from scalg.series import (
    growth_term,
    leq,
    mul,
    reference_growth,
    sphere_series_char0,
    sphere_series_charp,
    unit_series,
)
from scalg.symalg import sphere_homotopy


# ----------------------------------------------------------------- profiles

def test_profile_strips_zeros_and_finds_top():
    p = EnvelopeProfile(2, {1: 1, 2: 0, 3: 2}, pi_bound=3)
    assert p.dims == {1: 1, 3: 2}
    assert p.top == 3


def test_profile_requires_bound_above_characteristic():
    with pytest.raises(ProfileError):
        EnvelopeProfile(3, {2: 1}, pi_bound=3)
    EnvelopeProfile(3, {2: 1}, pi_bound=4)
    EnvelopeProfile(0, {2: 1}, pi_bound=1)


def test_profile_rejects_bad_degrees():
    with pytest.raises(ProfileError):
        EnvelopeProfile(2, {0: 1}, pi_bound=3)
    with pytest.raises(ProfileError):
        EnvelopeProfile(2, {2: -1}, pi_bound=3)


# ------------------------------------------------------------ envelope chain

def test_envelope_chain_trivial_cases():
    assert envelope_chain(EnvelopeProfile(0, {1: 2}), 6) == []
    assert envelope_chain(EnvelopeProfile(0, {2: 1}), 6) == []


def test_envelope_chain_single_stage_with_empty_factor():
    profile = EnvelopeProfile(0, {2: 1, 3: 2})
    stages = envelope_chain(profile, 6)
    assert len(stages) == 1
    assert stages[0].s == 1
    assert stages[0].factor == unit_series(6)


def test_envelope_chain_char0_factors_are_sphere_series():
    profile = EnvelopeProfile(0, {1: 1, 2: 1, 4: 1})
    stages = envelope_chain(profile, 8)
    assert len(stages) == 2
    assert stages[0].factor == sphere_series_char0(1, 2, 8)
    assert stages[1].factor == sphere_series_char0(1, 3, 8)


def test_envelope_chain_instantiated_inequalities_hold():
    # realize a two-stage profile by an honest tensor of spheres: with
    # A = S(1 class, 2) (x) S(1 class, 3), each envelope stage inequality
    # holds with the closed forms, coefficientwise
    theta_A = mul(sphere_series_char0(1, 2, 8), sphere_series_char0(1, 3, 8))
    profile = EnvelopeProfile(0, {2: 1, 3: 1})
    split = splitting_series(profile, 8)
    # the tower inequality theta(A(n-2)) <= theta(A) * prod(factors): here
    # n = 3 and the single factor is theta(q_1 = 0) = 1
    stages = envelope_chain(profile, 8)
    rhs = theta_A
    for st in stages:
        rhs = mul(rhs, st.factor)
    assert leq(split, rhs)


# ---------------------------------------------------------- splitting series

def test_splitting_series_needs_two_degrees():
    with pytest.raises(ProfileError):
        splitting_series(EnvelopeProfile(0, {1: 1}), 6)


def test_splitting_series_q_zero_next_to_top():
    profile = EnvelopeProfile(0, {3: 2})
    s = splitting_series(profile, 9)
    assert s == sphere_series_char0(2, 3, 9)


def test_splitting_series_closed_form_product():
    profile = EnvelopeProfile(0, {2: 1, 3: 1})
    s = splitting_series(profile, 8)
    assert s == mul(sphere_series_char0(1, 2, 8), sphere_series_char0(1, 3, 8))


def test_splitting_matches_tensor_homotopy():
    # the split statement: homotopy of S(V, n-1) (x) S(W, n) is the product
    # of the two sphere series; check against brute force
    from scalg.simplicial import GradedDims
    from scalg.symalg import symmetric_power
    from scalg.simplicial import eilenberg_maclane

    T, W = 5, 4
    a = sphere_homotopy(QQ, 1, 2, T, W)
    b = sphere_homotopy(QQ, 1, 3, T, W)
    prod = GradedDims({m: v for m, v in enumerate(a.dims) if v}).convolve(
        GradedDims({m: v for m, v in enumerate(b.dims) if v}), upto=T - 1
    )
    split = splitting_series(EnvelopeProfile(0, {2: 1, 3: 1}), T - 1)
    for m in range(T):
        assert split[m] == prod[m]


# ------------------------------------------------------------- the audit

def test_audit_requires_positive_characteristic_and_bound():
    with pytest.raises(ProfileError):
        serre_audit(EnvelopeProfile(0, {2: 1}, pi_bound=5))
    with pytest.raises(ProfileError):
        serre_audit(EnvelopeProfile(2, {2: 1}, pi_bound=UNBOUNDED))


def test_audit_top_degree_one_is_consistent():
    for q in (1, 2, 5):
        v = serre_audit(EnvelopeProfile(2, {1: q}, pi_bound=100))
        assert v.outcome == "consistent"
        assert v.witness is None


def test_audit_empty_profile_is_consistent():
    v = serre_audit(EnvelopeProfile(2, {}, pi_bound=3))
    assert v.outcome == "consistent"


@pytest.mark.parametrize("dims", [{}, {1: 4}, {2: 1}])
def test_audit_refuses_an_unknown_mode_before_any_verdict(dims):
    # the empty and the top-degree-1 profile used to return "consistent"
    # with the unknown mode in their trace
    with pytest.raises(ProfileError, match="mode must be"):
        serre_audit(EnvelopeProfile(2, dims, pi_bound=3), mode="bogus")


def test_audit_simple_contradiction_with_witness():
    v = serre_audit(EnvelopeProfile(2, {2: 1}, pi_bound=3))
    assert v.outcome == "contradiction"
    assert v.witness is not None
    assert v.verify()
    # n = 2: the left polynomial is q_1 + q_2 t of degree 1, the right is
    # just the log bound
    assert v.trace["lhs_poly"] == {"1": "1"}
    assert v.trace["rhs_poly"] == {}


def test_audit_full_grid_asymptotic():
    # every profile with top degree in {2, 3, 4}, entries at most 2,
    # p in {2, 3}, D in {p+1, 100}: contradiction with verified witness
    for n in (2, 3, 4):
        lower = list(itertools.product(range(3), repeat=n - 1))
        for qs in lower:
            for qn in (1, 2):
                dims = {s + 1: q for s, q in enumerate(qs)}
                dims[n] = qn
                for p in (2, 3):
                    for D in (p + 1, 100):
                        profile = EnvelopeProfile(p, dims, pi_bound=D)
                        v = serre_audit(profile)
                        assert v.outcome == "contradiction", (dims, p, D)
                        assert v.verify(), (dims, p, D)


def test_growth_polynomials_match_the_hand_formula():
    # oracle: left q_{n-1}/(n-2)! t^(n-2) + q_n/(n-1)! t^(n-1), right
    # q_s/s! t^s for 1 <= s <= n-2, zero coefficients left out
    for n in (2, 3, 4):
        for qs in itertools.product(range(3), repeat=n - 1):
            for qn in (1, 2):
                dims = {s + 1: q for s, q in enumerate(qs)}
                dims[n] = qn
                lhs, rhs = growth_polynomials(EnvelopeProfile(2, dims, pi_bound=3))
                want_lhs = {n - 2: Fraction(dims[n - 1], math.factorial(n - 2)),
                            n - 1: Fraction(qn, math.factorial(n - 1))}
                want_rhs = {s: Fraction(dims[s], math.factorial(s))
                            for s in range(1, n - 1)}
                assert lhs == {d: c for d, c in want_lhs.items() if c}, dims
                assert rhs == {d: c for d, c in want_rhs.items() if c}, dims


def test_one_growth_term_for_the_float_and_the_exact_reading():
    # reference_growth keeps its float operations bit for bit, and the
    # audit's exact leading term is q / (n-1)! from the same triple
    for q in range(9):
        for n in range(1, 40):
            assert growth_term(q, n) == (n - 1, q, math.factorial(n - 1))
            assert scalg.audit._growth_term((q, n)) == (
                n - 1, Fraction(q, math.factorial(n - 1)))
            for t in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 8.0):
                assert reference_growth(q, n, t) == (
                    q * float(t) ** (n - 1) / math.factorial(n - 1))


def test_exceeds_log_bound_is_the_exact_power_comparison():
    # the brackets that skip the power (D <= 1, and bit lengths showing
    # p**num < D**den) agree with computing both powers
    rng = random.Random(18)
    primes = [2, 3, 5, 7, 11, 101, 2**31 - 1]
    for _ in range(20000):
        p = rng.choice(primes)
        D = rng.choice([0, 1, 2, p, p + 1, rng.randint(2, 10**6), p**rng.randint(1, 9)])
        value = Fraction(rng.randint(-5, 300), rng.randint(1, 300))
        exact = value > 0 and p**value.numerator > D**value.denominator
        assert scalg.audit._exceeds_log_bound(value, p, D) == exact, (value, p, D)


def test_exceeds_log_bound_is_exact_past_the_power_cut_over():
    # 2**2000001 > 3**1000000 although the value lies within 1 of log_2(3),
    # and near-ties around log_2(3) = 1.584962500721156... are decided by
    # their last digit (about one bit apart) without computing either power
    exceeds = scalg.audit._exceeds_log_bound
    assert exceeds(Fraction(2000001, 1000000), 2, 3)
    assert not exceeds(Fraction(1584962500721, 10**12), 2, 3)
    assert exceeds(Fraction(1584962500722, 10**12), 2, 3)
    assert not exceeds(Fraction(10**40 - 1, 10**40), 3, 4)  # log_3(4) > 1


@pytest.mark.parametrize("p,e", [(2, 1), (2, 5), (3, 3), (7, 2), (2**31 - 1, 2)])
def test_exceeds_log_bound_ties_at_powers_of_p(p, e):
    # value = log_p(p**e) exactly is a tie, so not exceeded; one part in a
    # huge denominator either way decides
    exceeds = scalg.audit._exceeds_log_bound
    den = 10**15 + 7
    assert not exceeds(Fraction(e), p, p**e)
    assert not exceeds(Fraction(e * den - 1, den), p, p**e)
    assert exceeds(Fraction(e * den + 1, den), p, p**e)
    assert not exceeds(Fraction(3 * e * den, 3 * den), p, p**e)


def test_exceeds_log_bound_brackets_agree_with_the_powers():
    # no power is computed, so the log brackets alone must give the exact
    # power comparison
    rng = random.Random(19)
    primes = [2, 3, 5, 7, 11, 101, 2**31 - 1]
    for _ in range(5000):
        p = rng.choice(primes)
        D = rng.choice([2, p + 1, rng.randint(2, 10**6), p**rng.randint(1, 9),
                        rng.randint(2, 40)**rng.randint(1, 4)])
        value = Fraction(rng.randint(-5, 2000), rng.randint(1, 2000))
        exact = value > 0 and p**value.numerator > D**value.denominator
        assert scalg.audit._exceeds_log_bound(value, p, D) == exact, (value, p, D)


@pytest.mark.parametrize("x", [2, 3, 10, 2**31 - 1, 10**30 + 57])
def test_log2_brackets_hold_the_power(x):
    for k in (1, 2, 3, 5, 64, 1000, 4321):
        lo, hi = scalg.audit._log2_brackets(x, k)
        bits = (x**k).bit_length()  # bits - 1 <= k*log2(x) < bits
        assert lo <= bits - 1 and bits <= hi <= lo + 3, (x, k, lo, hi)


def test_audit_with_a_huge_growth_denominator_returns():
    # at t = 1 the left polynomial of top degree 16 is 1/15!, so the
    # exact comparison would raise D to the power 15!
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "scalg.cli", "audit", "--char", "2",
         "--profile", "16:1", "--pi-bound", "3"],
        env=env, cwd=root, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout)
    assert verdict["outcome"] == "contradiction"
    assert verdict["trace"]["verification"]["witness"] == 7


def test_audit_monotone_in_bound():
    base = serre_audit(EnvelopeProfile(2, {1: 2, 3: 1}, pi_bound=3))
    for D in (10, 100, 10**9):
        v = serre_audit(EnvelopeProfile(2, {1: 2, 3: 1}, pi_bound=D))
        assert v.outcome == "contradiction"
        assert v.witness >= base.witness


def test_audit_growth_polynomials_reading():
    lhs, rhs = growth_polynomials(EnvelopeProfile(2, {1: 2, 2: 1, 3: 2},
                                                  pi_bound=5))
    assert lhs == {1: Fraction(1), 2: Fraction(1)}  # 2/1! wait: q_2/(1)! t^1
    # q_{n-1} = q_2 = 1 over (n-2)! = 1, q_n = 2 over (n-1)! = 2
    assert rhs == {1: Fraction(2)}


def test_audit_empirical_n2_finds_witness():
    v = serre_audit(EnvelopeProfile(2, {1: 1, 2: 1}, pi_bound=3),
                    mode="empirical", t_samples=[1, 2, 4, 8, 16], M=6)
    assert v.outcome == "contradiction"
    assert v.witness == 2
    assert v.verify()
    assert v.trace["verification"]["lhs"] > v.trace["verification"]["rhs"]


def test_audit_empirical_computes_each_distinct_factor_once(monkeypatch):
    # q_1 = q_2 = 3: the stage-1 factor theta(q_1, 2) is also the top factor
    # theta(q_2, 2), so two brute-force series serve three factors
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sphere_series_charp(*args, **kwargs)

    monkeypatch.setattr(scalg.audit, "sphere_series_charp", counted)
    serre_audit(EnvelopeProfile(3, {1: 3, 2: 3, 3: 1}, pi_bound=5),
                mode="empirical", M=4)
    assert sorted(calls) == [(1, 3, 3, 4), (3, 2, 3, 4)]


def test_audit_empirical_inconclusive_at_tight_truncation():
    # with one degree-2 class the partial sums cap strictly below the
    # log bound at any finite truncation reachable here: honest inconclusive
    v = serre_audit(EnvelopeProfile(2, {2: 1}, pi_bound=3),
                    mode="empirical", t_samples=[1, 2, 4, 8, 16], M=6)
    assert v.outcome == "inconclusive"


def test_audit_empirical_can_be_inconclusive():
    # a huge bound cannot be beaten at tiny truncation
    v = serre_audit(EnvelopeProfile(2, {2: 1}, pi_bound=2**40),
                    mode="empirical", t_samples=[1, 2], M=4)
    assert v.outcome == "inconclusive"
    assert v.witness is None


def test_audit_verdict_json():
    v = serre_audit(EnvelopeProfile(3, {2: 2}, pi_bound=4))
    d = v.to_json_dict()
    assert d["outcome"] == "contradiction"
    assert d["trace"]["p"] == 3
    assert "reading_note" in d["trace"]


# ------------------------------------------------------------ rational check

def test_rational_check_requires_char0():
    with pytest.raises(ProfileError):
        rational_check(EnvelopeProfile(2, {2: 1}, pi_bound=3), True)


def test_rational_check_empty():
    v = rational_check(EnvelopeProfile(0, {}), True)
    assert v.outcome == "consistent"


def test_rational_check_even_profile_forced_empty():
    v = rational_check(EnvelopeProfile(0, {2: 1}), True)
    assert v.outcome == "forced_empty"
    assert any("never vanish" in j for j in v.justification)


def test_rational_check_odd_class_not_applicable():
    # the profile of the (r=1, s=2) power cofiber: classes at 2 and 5
    v = rational_check(EnvelopeProfile(0, {2: 1, 5: 1}), True)
    assert v.outcome == "not_applicable"
    assert any("odd" in j for j in v.justification)


def test_rational_check_without_finiteness():
    v = rational_check(EnvelopeProfile(0, {2: 1}), False)
    assert v.outcome == "not_applicable"
