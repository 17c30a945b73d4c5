import math

import pytest
from hypothesis import example, given, settings, strategies as st

from scalg.exactfield import QQ, FieldSpec
from scalg.simplicial import GradedDims, HomotopyDims, eilenberg_maclane
from scalg.symalg import sphere_homotopy
from scalg.series import (
    AsymptoticReport,
    ClosedForm,
    SeriesError,
    SeriesInputError,
    TruncatedSeries,
    asymptotic_check,
    from_dims,
    leq,
    leq_report,
    mul,
    phi_eval,
    reference_growth,
    sphere_series_char0,
    sphere_series_charp,
    unit_series,
)


# ------------------------------------------------------------ construction

def test_series_rejects_negative_coefficients():
    with pytest.raises(SeriesError):
        TruncatedSeries((1, -1))


def test_closed_form_must_reproduce_coefficients():
    cf = ClosedForm(1, ((2, -1),))
    TruncatedSeries((1, 0, 1, 0, 1), cf)
    with pytest.raises(SeriesError):
        TruncatedSeries((1, 1, 1), cf)


def test_indexing_beyond_truncation_is_zero():
    s = TruncatedSeries((1, 2))
    assert s[0] == 1 and s[1] == 2 and s[5] == 0
    assert s.truncation == 1


# ----------------------------------------------------------------- product

def test_mul_unit():
    f = TruncatedSeries((1, 2, 3))
    assert mul(f, unit_series(2)) == f


def test_mul_binomial():
    f = TruncatedSeries((1, 1))
    assert mul(f, f).coeffs == (1, 2)
    g = TruncatedSeries((1, 1, 0))
    assert mul(g, g).coeffs == (1, 2, 1)


def test_mul_even_times_odd_sphere():
    f = sphere_series_char0(1, 2, 6)
    g = sphere_series_char0(1, 3, 6)
    h = mul(f, g)
    assert h.coeffs == (1, 0, 1, 1, 1, 1, 1)
    assert h.closed_form is not None
    assert h.closed_form.expand(6) == list(h.coeffs)


def test_mul_truncates_to_common_range():
    f = TruncatedSeries((1, 1, 1, 1))
    g = TruncatedSeries((1, 1))
    assert mul(f, g).truncation == 1


# ------------------------------------------------------------------- order

def test_leq_reflexive():
    f = TruncatedSeries((1, 4, 2))
    assert leq(f, f)


def test_leq_one_below_geometric():
    one = unit_series(5)
    geo = TruncatedSeries(ClosedForm(1, ((1, -1),)).expand(5),
                          ClosedForm(1, ((1, -1),)))
    assert leq(one, geo)
    assert not leq(geo, one)
    ok, idx = leq_report(geo, one)
    assert not ok and idx == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
)
@example([0, 1], [0], [0, 0])  # [0,1] <= [0] <= [0,0] must give [0,1] <= [0,0]
def test_leq_partial_order_and_mul_monotone(a, b, c):
    f, g, h = (TruncatedSeries(t) for t in (a, b, c))
    # reflexivity
    assert leq(f, f)
    # antisymmetry on equal truncations
    if len(a) == len(b) and leq(f, g) and leq(g, f):
        assert f == g
    # transitivity
    if leq(f, g) and leq(g, h):
        assert leq(f, h)
    # multiplication preserves the order
    if leq(f, g):
        assert leq(mul(f, h), mul(g, h))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
)
def test_mul_commutative_associative(a, b, c):
    f, g, h = (TruncatedSeries(t) for t in (a, b, c))
    assert mul(f, g) == mul(g, f)
    assert mul(mul(f, g), h) == mul(f, mul(g, h))


# ------------------------------------------------------------- closed forms

def test_sphere_series_even_is_polynomial():
    s = sphere_series_char0(1, 2, 8)
    assert s.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1)
    assert s.closed_form == ClosedForm(1, ((2, -1),))


def test_sphere_series_odd_is_exterior():
    s = sphere_series_char0(1, 3, 7)
    assert s.coeffs == (1, 0, 0, 1, 0, 0, 0, 0)


def test_sphere_series_two_even_generators():
    s = sphere_series_char0(2, 2, 6)
    assert s.coeffs == (1, 0, 2, 0, 3, 0, 4)


def test_sphere_series_char0_rejects_bad_input():
    # no generators is not bad input: the unit series, as in char p
    unit = sphere_series_char0(0, 2, 4)
    assert unit == unit_series(4)
    assert unit.to_json_dict() == unit_series(4).to_json_dict()
    with pytest.raises(SeriesError):
        sphere_series_char0(1, 0, 4)


def test_from_dims():
    s = from_dims([1, 0, 2], M=4)
    assert s.coeffs == (1, 0, 2, 0, 0)


def test_from_dims_reads_graded_dims_through_m():
    assert from_dims(GradedDims({0: 1, 2: 3}), M=3).coeffs == (1, 0, 3, 0)
    h = eilenberg_maclane(QQ, 2, 2, 4).homotopy_dims()
    assert isinstance(h, HomotopyDims)
    assert from_dims(h, M=4).coeffs == (0, 0, 2, 0, 0)
    with pytest.raises(SeriesError, match="truncation"):
        from_dims(GradedDims({0: 1}))


# ------------------------------------------------------- char p delegation

def test_sphere_series_charp_q0():
    assert sphere_series_charp(0, 2, 2, 4).coeffs == (1, 0, 0, 0, 0)


def test_sphere_series_charp_prefix():
    s = sphere_series_charp(1, 1, 2, 4)
    # degree 0 is the unit, degree 1 the generator
    assert s[0] == 1 and s[1] == 1
    assert s.truncation <= 4


@pytest.mark.parametrize("q,n,p,M", [
    (1, 7, 2, 6), (1, 12, 2, 6), (2, 9, 3, 6), (3, 8, 5, 4), (2, 2, 3, 1),
    (1, 1, 2, 0),
])
def test_sphere_series_charp_above_the_truncation_computes_no_weight(q, n, p, M):
    # for n > M the series is 1 through M, as the weights computed to level
    # n say: no weight d >= 1 has chains below level n
    report = sphere_homotopy(FieldSpec(p), q, n, max(n, M + 1), M)
    good = min(report.certified_degree, report.stable_through(), M)
    series = sphere_series_charp(q, n, p, M)
    assert series == TruncatedSeries(report.dims[: good + 1])
    assert series.coeffs == (1,) + (0,) * M and series.closed_form is None


@pytest.mark.parametrize("n,p", [(2, 0), (0, 2)])
def test_sphere_series_charp_input_no_bound_fixes(n, p):
    with pytest.raises(SeriesInputError):
        sphere_series_charp(1, n, p, 4)


def test_sphere_series_charp_signals_short_truncation(dim_budget):
    dim_budget(50)
    s = sphere_series_charp(1, 2, 2, 6)
    assert s.truncation < 6


# --------------------------------------------------------------------- phi

def test_phi_of_unit_series_is_zero():
    one = unit_series(4)
    for t in (0.5, 1, 2, 8):
        pv = phi_eval(one, 2, t)
        assert pv.value == 0.0
        assert pv.stabilized


def test_phi_requires_positive_t():
    with pytest.raises(SeriesError):
        phi_eval(unit_series(2), 2, 0)


def test_phi_partial_sums_approach_closed_form():
    # diagnostic from the even sphere in characteristic zero: the partial
    # sums of 1/(1-x^2) at x = 1 - 2^{-t} approach -log2(1 - x^2)
    t = 1.0
    x = 1 - 2**-t
    exact = math.log(1 / (1 - x * x), 2)
    values = []
    for M in (4, 8, 16, 32):
        s = sphere_series_char0(1, 2, M)
        pv = phi_eval(s, 2, t)
        values.append(pv.value)
        assert pv.value <= exact + 1e-12
    assert values == sorted(values)
    assert abs(values[-1] - exact) < 1e-3


def test_phi_monotone_in_truncation():
    t = 2.0
    vals = [phi_eval(sphere_series_char0(1, 2, M), 2, t).value for M in (2, 4, 8, 12)]
    assert vals == sorted(vals)


def test_phi_stabilization_is_honest():
    s = sphere_series_char0(1, 2, 4)
    assert not phi_eval(s, 2, 8.0).stabilized
    assert phi_eval(sphere_series_char0(1, 2, 64), 2, 1.0).stabilized


# -------------------------------------------------------------- asymptotics

def test_reference_growth_values():
    assert reference_growth(1, 1, 7.0) == 1.0
    assert reference_growth(1, 2, 3.0) == 3.0
    assert reference_growth(2, 3, 3.0) == 9.0


def test_asymptotic_check_n1_ratio_is_phi_over_q():
    rep = asymptotic_check(1, 1, 2, [0.5, 1.0], M=4)
    for row in rep.rows:
        assert row.reference == 1.0
        assert row.ratio == row.phi


def test_asymptotic_check_reports_trend_and_flags():
    rep = asymptotic_check(1, 2, 2, [0.25, 0.5, 0.75, 4.0, 8.0], M=6)
    assert rep.monotone_toward_one()
    assert rep.inconclusive_from() is not None
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "t,phi,reference,ratio,stabilized"
    assert len(csv.splitlines()) == 6


def test_asymptotic_check_rejects_a_zero_reference():
    # q = 0 (or a t so small that t^(n-1) underflows) makes the reference
    # 0, where the ratio column would be NaN
    with pytest.raises(SeriesError):
        asymptotic_check(0, 1, 2, [1.0], M=2)
    with pytest.raises(SeriesError):
        asymptotic_check(1, 3, 2, [1e-200], M=3)


def test_asymptotic_linear_in_q():
    rep1 = asymptotic_check(1, 2, 2, [0.5], M=6)
    rep2 = asymptotic_check(2, 2, 2, [0.5], M=6)
    r1 = rep1.rows[0].phi
    r2 = rep2.rows[0].phi
    assert 1.2 < r2 / r1 < 2.8
