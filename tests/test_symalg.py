import math
from fractions import Fraction

import pytest

from scalg.exactfield import Mat, QQ, GF2, GF3, rank
from scalg.simplicial import eilenberg_maclane, gamma, constant_object
from scalg.symalg import (
    HomotopyReport,
    WeightGradedAlgebra,
    hurewicz,
    indecomposables,
    sphere_algebra,
    sphere_homotopy,
    sym_power_homology,
    symmetric_power,
)


def free_graded_commutative_dims(q, n, upto):
    """Oracle: dimension count of the free graded-commutative algebra on q
    generators in degree n, computed by expanding the generating series
    (1 - t^n)^{-q} for n even and (1 + t^n)^q for n odd."""
    coeffs = [1] + [0] * upto
    for _ in range(q):
        if n % 2 == 0:
            # multiply by 1/(1 - t^n): prefix sums with stride n
            for i in range(n, upto + 1):
                coeffs[i] += coeffs[i - n]
        else:
            # multiply by (1 + t^n)
            for i in range(upto, n - 1, -1):
                coeffs[i] += coeffs[i - n]
    return coeffs


# -------------------------------------------------------- symmetric powers

def test_sym_power_zero_and_one():
    k = eilenberg_maclane(QQ, 1, 2, 4)
    s0 = symmetric_power(k, 0)
    assert s0.level_dims == [1, 1, 1, 1, 1]
    assert symmetric_power(k, 1) is k


def test_sym_power_level_dims_binomial():
    k = eilenberg_maclane(QQ, 1, 2, 4)
    s2 = symmetric_power(k, 2)
    assert s2.level_dims == [0, 0, 1, 6, 21]
    for m in range(5):
        c = k.level_dims[m]
        assert s2.level_dims[m] == math.comb(c + 1, 2)


def test_sym_power_rejects_negative():
    k = eilenberg_maclane(QQ, 1, 1, 2)
    with pytest.raises(ValueError):
        symmetric_power(k, -1)


@pytest.mark.parametrize(
    "field,q,n,d,T",
    [
        (QQ, 1, 2, 2, 5),
        (QQ, 2, 1, 2, 4),
        (GF2, 1, 1, 3, 4),
        (GF2, 1, 2, 2, 5),
        (GF3, 1, 2, 2, 4),
        (GF3, 2, 1, 2, 3),
    ],
)
def test_fast_path_agrees_with_generic(field, q, n, d, T):
    k = eilenberg_maclane(field, q, n, T)
    generic = symmetric_power(k, d)
    h_generic = generic.homotopy_dims()
    h_fast = sym_power_homology(field, q, n, d, T)
    for m in range(T):
        assert h_fast[m] == h_generic[m], (field, q, n, d, m)


@pytest.mark.parametrize(
    "field,q,n,d,T",
    [(QQ, 1, 2, 2, 5), (GF2, 1, 1, 3, 4), (GF3, 1, 2, 2, 4)],
)
def test_sym_power_dual_oracle(field, q, n, d, T):
    k = eilenberg_maclane(field, q, n, T)
    s = symmetric_power(k, d)
    hn = s.normalized_chains().homology_dims()
    hu = s.unnormalized_chains().homology_dims()
    for m in range(T):
        assert hn[m] == hu[m]


# ------------------------------------------------------------ sphere algebra

def test_sphere_algebra_components():
    A = sphere_algebra(QQ, 1, 2, 4, 3)
    assert A.components[0].level_dims == [1, 1, 1, 1, 1]
    assert A.components[1].level_dims == [0, 0, 1, 3, 6]
    assert A.components[2].level_dims == [0, 0, 1, 6, 21]
    assert A.W == 3 and A.q == 1 and A.n == 2


def test_sphere_algebra_identities():
    for field in (QQ, GF2):
        A = sphere_algebra(field, 1, 1, 3, 3)
        A.check_algebra_identities()


def test_sphere_algebra_bounds():
    with pytest.raises(ValueError):
        sphere_algebra(QQ, 1, 3, 2, 2)
    with pytest.raises(ValueError):
        sphere_algebra(QQ, 1, 2, 4, 0)


def test_multiplication_weight_truncation():
    A = sphere_algebra(QQ, 1, 2, 3, 2)
    with pytest.raises(ValueError):
        A.multiplication(1, 2, 2)
    out = A.multiply_elements(1, {0: Fraction(1)}, 2, {0: Fraction(1)}, 2)
    assert out == {}


def test_multiplication_is_monomial_merge():
    A = sphere_algebra(QQ, 1, 2, 4, 2)
    m = A.multiplication(1, 1, 3)
    # level 3 of the generators is 3-dimensional; x_i * x_j lands on the
    # monomial {i, j} with coefficient 1
    assert m.ncols == 9
    mono_index = {mono: i for i, mono in enumerate(A.monomials[2][3])}
    assert m.cols[0 * 3 + 1] == {mono_index[(0, 1)]: Fraction(1)}
    assert m.cols[1 * 3 + 0] == {mono_index[(0, 1)]: Fraction(1)}


# ------------------------------------------------------------ sphere homotopy

def test_sphere_homotopy_char0_closed_forms_small():
    for q in (1, 2):
        for n in (1, 2, 3):
            T = n + 3
            W = T
            r = sphere_homotopy(QQ, q, n, T, W)
            want = free_graded_commutative_dims(q, n, T)
            for m in range(r.certified_degree + 1):
                assert r.dims[m] == want[m], (q, n, m, r.dims, want)


def test_sphere_homotopy_q_zero():
    r = sphere_homotopy(QQ, 0, 2, 4, 3)
    assert r.dims == [1, 0, 0, 0, 0]


def test_sphere_homotopy_char2_line_dual_oracle():
    # no closed form assumed: compare the covering-complex path against
    # unnormalized chains of the generic symmetric powers, weight by weight
    T, W = 5, 5
    r = sphere_homotopy(GF2, 1, 1, T, W)
    k = eilenberg_maclane(GF2, 1, 1, T)
    total = [0] * (T + 1)
    total[0] = 1
    for d in range(1, W + 1):
        hu = symmetric_power(k, d).unnormalized_chains().homology_dims()
        for m in range(T):
            total[m] += hu[m]
    for m in range(r.certified_degree + 1):
        if m < T:
            assert r.dims[m] == total[m], (m, r.dims, total)


def test_sphere_homotopy_budget_degrades_honestly():
    generous = sphere_homotopy(QQ, 1, 2, 5, 2)
    starved = sphere_homotopy(QQ, 1, 2, 5, 2, dim_budget=2)
    assert starved.certified_degree < generous.certified_degree
    assert not all(starved.stable_flags)
    for m in range(starved.certified_degree + 1):
        assert starved.dims[m] == generous.dims[m]


def test_dold_invariance_small():
    # two weakly equivalent models of K(l, 1): the minimal one and the one
    # with a contractible summand; their free algebras must have the same
    # homotopy in certified stable degrees
    for field in (QQ, GF2):
        T, W = 4, 3
        minimal = eilenberg_maclane(field, 1, 1, T)
        acyclic = gamma(
            field,
            [0, 0, 1, 1],
            [None, Mat.zero(field, 0, 0), Mat.zero(field, 0, 1),
             Mat.identity(field, 1)],
            T,
        )
        fat = minimal.direct_sum(acyclic)
        dims_min = [0] * (T + 1)
        dims_fat = [0] * (T + 1)
        dims_min[0] = dims_fat[0] = 1
        for d in range(1, W + 1):
            hm = symmetric_power(minimal, d).homotopy_dims()
            hf = symmetric_power(fat, d).homotopy_dims()
            for m in range(T):
                dims_min[m] += hm[m]
                dims_fat[m] += hf[m]
        for m in range(T):
            assert dims_min[m] == dims_fat[m], (field, m, dims_min, dims_fat)


# ----------------------------------------------- indecomposables and hurewicz

def test_indecomposables_is_weight_one():
    A = sphere_algebra(GF2, 2, 2, 4, 2)
    Q = indecomposables(A)
    assert Q is A.components[1]
    h = Q.homotopy_dims()
    assert [h[m] for m in range(4)] == [0, 0, 2, 0]


def test_indecomposables_rejects_foreign_input():
    with pytest.raises(ValueError):
        indecomposables("not an algebra")


def test_indecomposables_of_trivial_algebra():
    # q = 0: the algebra is the ground field, Q is the zero object
    A = sphere_algebra(QQ, 0, 2, 3, 2)
    Q = indecomposables(A)
    assert Q.level_dims == [0, 0, 0, 0]


def test_hurewicz_iso_and_surjection():
    for field in (QQ, GF2):
        for n in (1, 2):
            A = sphere_algebra(field, 1, n, n + 2, 3)
            h = hurewicz(A)
            assert h[n].nrows == 1 and h[n].ncols == 1
            assert rank(h[n]) == 1
            # surjectivity in degree n + 1: the target there is pi_{n+1} K = 0
            assert h[n + 1].nrows == 0


def test_hurewicz_kills_decomposables():
    # pi_4 of S(Q, 2) is spanned by the square of the generator, which dies
    # in the indecomposables
    A = sphere_algebra(QQ, 1, 2, 5, 3)
    h = hurewicz(A)
    assert h[4].ncols == 1  # pi_4(IA) is one-dimensional
    assert h[4].nrows == 0  # pi_4(QA) = 0
    assert h[2].to_rows() == [[Fraction(1)]]


def test_hurewicz_trivial_algebra_is_all_zero():
    A = sphere_algebra(QQ, 0, 2, 3, 2)
    h = hurewicz(A)
    for s, m in h.items():
        assert m.nrows == 0 and m.ncols == 0


def test_sphere_algebra_total_homotopy_matches_report():
    # summing the homotopy of the weight components of the materialized
    # algebra reproduces the fast-path report
    A = sphere_algebra(QQ, 1, 2, 6, 3)
    total = [0] * 7
    for comp in A.components:
        h = comp.homotopy_dims()
        for m in range(7):
            total[m] += h[m]
    r = sphere_homotopy(QQ, 1, 2, 6, 3)
    assert total[:6] == r.dims[:6]
    assert total == [1, 0, 1, 0, 1, 0, 1]


def test_hurewicz_rejects_disconnected():
    base = eilenberg_maclane(QQ, 1, 0, 3)
    comps = [constant_object(QQ, 3), base]
    monos = [[[()] for _ in range(4)],
             [[(i,) for i in range(base.level_dims[m])] for m in range(4)]]
    A = WeightGradedAlgebra(QQ, base, 1, comps, monos)
    with pytest.raises(ValueError):
        hurewicz(A)


# ----------------------------------------------------------------- reports

def test_report_json_shape():
    r = sphere_homotopy(GF2, 1, 2, 4, 2)
    d = r.to_json_dict()
    assert d["field"] == 2
    assert d["q"] == 1 and d["n"] == 2
    assert len(d["dims"]) == 5
    assert len(d["stable_flags"]) == 5
    assert isinstance(d["certified_degree"], int)
    assert r.stable_through() >= 2
