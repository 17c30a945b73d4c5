import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scalg.symalg
from scalg.exactfield import FieldSpec, Mat, QQ, GF2, GF3, rank, solve
from scalg.simplicial import (
    ChainComplex, HomotopyDims, SimplicialVectorSpace, eilenberg_maclane, gamma,
    constant_object, _jump_surjections, _operator_slots,
)
from scalg.series import sphere_series_charp
from scalg.symalg import (
    DIM_BUDGET,
    HomotopyReport,
    WeightGradedAlgebra,
    divided_power_covering_complex,
    hurewicz,
    indecomposables,
    induced_homology_matrices,
    sphere_algebra,
    sphere_homotopy,
    sym_power_covering_complex,
    sym_power_homology,
    symmetric_power,
    _covering_dims,
    _divided_power_merge,
    _face_codes,
    _generator_images,
    _monomials,
    _sym_map,
    _sym_rows,
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
        # q > 1: convolved from one-generator pieces
        (QQ, 2, 2, 2, 5),
        (QQ, 3, 1, 3, 4),
        (GF2, 2, 1, 3, 4),
        (GF2, 3, 2, 2, 5),
        (GF3, 2, 2, 3, 5),
        (GF3, 3, 1, 2, 4),
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
    "field,q,n,d,T,budget",
    [
        (QQ, 1, 2, 3, 6, DIM_BUDGET),
        (QQ, 1, 2, 3, 6, 25),  # level 5 has 30
        (GF2, 1, 1, 4, 5, 2),  # level 2 has 3
        (GF3, 2, 1, 3, 4, DIM_BUDGET),
        (QQ, 2, 2, 2, 5, 10),  # level 3 has 12
        (GF2, 3, 1, 2, 4, 8),  # level 2 has 9
        (GF3, 3, 2, 2, 5, DIM_BUDGET),
    ],
)
def test_counted_covering_dims_match_generic_normalized_chains(
        field, q, n, d, T, budget, dim_budget):
    # the counted levels, which define certification for every q, against
    # the nondegenerate levels of the generic symmetric power; the list
    # stops before the first level over budget
    full = symmetric_power(eilenberg_maclane(field, q, n, T), d).normalized_chains().dims
    over = [m for m in range(T + 1) if full[m] > budget]
    built_to = over[0] - 1 if over else T
    dim_budget(budget)
    assert _covering_dims(q, n, d, T) == full[:built_to + 1]
    if q == 1:
        cx, top = sym_power_covering_complex(field, n, d, T)
        assert (cx.dims, top) == (full[:built_to + 1], built_to)


def test_face_table_matches_the_coface_enumeration():
    # the covering complexes' face table, read from gamma's cached action,
    # against composing each code with the coface delta^i and looking the
    # result up among the level-(m - 1) surjections
    for m in range(1, 9):
        for n in range(5):
            target = {vals: (c, mask) for c, (vals, mask)
                      in enumerate(_jump_surjections(m - 1, n))}
            expect = [[target.get(tuple(vals[a + (a >= i)] for a in range(m)))
                       for vals, _ in _jump_surjections(m, n)]
                      for i in range(m + 1)]
            assert _face_codes(m, n) == expect, (m, n)


def test_sphere_homotopy_q3_certifies_as_the_direct_complex():
    # the q = 3 factor of the F_3 audit: the weight-5 check's 3-generator
    # complex has 21,312 covering monomials at level 4, over DIM_BUDGET, so
    # it certifies degree 2 only, although its one-generator pieces reach
    # further; the series factor stays [1, 0, 3] at truncation 2
    r = sphere_homotopy(GF3, 3, 2, 5, 4)
    assert r.dims == [1, 0, 3, 0, 6, 0] and r.certified_degree == 4
    assert r.stable_flags == [True, True, True, False, False, False]
    assert _covering_dims(3, 2, 5, 5) == [0, 0, 21, 1224]
    assert sym_power_homology(GF3, 3, 2, 5, 5).certified_degree == 2
    assert sphere_series_charp(3, 2, 3, 4).coeffs == (1, 0, 3)


# -------------------------------- symmetric powers inherit V's identities

GF5 = FieldSpec(5)


def sym_matrix(f, d):
    """Sym^d f on monomial bases, by _sym_map as symmetric_power builds it."""
    src = _monomials(f.ncols, d)
    index = {mono: i for i, mono in enumerate(_monomials(f.nrows, d))}
    return Mat(f.field, len(index), len(src),
               _sym_map(_generator_images(f), src, index, f.field.characteristic))


@st.composite
def integer_matrix(draw, field, nrows, ncols):
    """Integer matrix with zero, dense (no entry zero in any field used
    here) or arbitrary columns."""
    entries = {"zero": st.just(0),
               "dense": st.sampled_from([1, -1, 7, -11]),
               "any": st.integers(-6, 6)}
    cols = [draw(st.lists(entries[draw(st.sampled_from(sorted(entries)))],
                          min_size=nrows, max_size=nrows))
            for _ in range(ncols)]
    return Mat.from_rows(field, [[col[i] for col in cols] for i in range(nrows)],
                         ncols=ncols)


@st.composite
def composable_maps(draw):
    field = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    a, b, c = (draw(st.integers(0, 4)) for _ in range(3))
    return (draw(integer_matrix(field, b, a)), draw(integer_matrix(field, c, b)),
            draw(st.integers(0, 4)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(composable_maps())
def test_sym_map_is_a_functor_on_the_nose(maps):
    # symmetric_power checks no simplicial identity of Sym^d V: each is
    # Sym^d of one that holds on V, because Sym^d preserves composites and
    # identities matrix for matrix
    f, g, d = maps
    assert sym_matrix(g, d) @ sym_matrix(f, d) == sym_matrix(g @ f, d)
    for n in (f.ncols, f.nrows):
        assert sym_matrix(Mat.identity(f.field, n), d) == Mat.identity(
            f.field, len(_monomials(n, d)))


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("q,n,T", [(1, 2, 6), (2, 2, 4), (1, 4, 7), (3, 1, 3)])
def test_sym_lookup_equals_sym_map_on_em_objects(field, q, n, T):
    # every face and degeneracy of K(F^q, n) sends a basis vector to a
    # basis vector or to zero, so symmetric_power maps monomials by lookup
    k = eilenberg_maclane(field, q, n, T)
    p = field.characteristic
    for d in (2, 3):
        power = symmetric_power(k, d)
        indexes = [{mono: r for r, mono in enumerate(monos)}
                   for monos in power.basis_labels]
        for m, i, to in _operator_slots(T):
            f = k.operator(m, i, to)
            src = power.basis_labels[m]
            rows = _sym_rows(f, src, indexes[to])
            assert rows is not None
            lookup = Mat.from_unit_rows(field, len(indexes[to]), rows).cols
            assert lookup == _sym_map(_generator_images(f), src, indexes[to], p)
            assert power.operator(m, i, to).cols == lookup


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_symmetric_power_of_a_conjugated_object_goes_through_sym_map(
        field, monkeypatch):
    # conjugating each level of K(F, 1) by a unitriangular matrix gives
    # operators with columns of several entries, which _sym_rows declines
    k = eilenberg_maclane(field, 1, 1, 3)
    P = [Mat(field, n, n, [{r: 1 for r in range(j, n)} for j in range(n)])
         for n in k.level_dims]
    inv = [Mat(field, n, n, [solve(A, {j: 1}) for j in range(n)])
           for A, n in zip(P, k.level_dims)]
    w = SimplicialVectorSpace.from_operators(
        field, k.level_dims,
        lambda m, i, to: P[to] @ k.operator(m, i, to) @ inv[m])
    calls = []
    sym_map = scalg.symalg._sym_map

    def counted(*args):
        calls.append(args)
        return sym_map(*args)

    monkeypatch.setattr(scalg.symalg, "_sym_map", counted)
    power = symmetric_power(w, 2)
    declined = [(m, i, to) for m, i, to in _operator_slots(3)
                if _sym_rows(w.operator(m, i, to), power.basis_labels[m],
                             {mono: r for r, mono in
                              enumerate(power.basis_labels[to])}) is None]
    assert declined and len(calls) == len(declined)
    for m, i, to in _operator_slots(3):
        assert power.operator(m, i, to) == sym_matrix(w.operator(m, i, to), 2)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_powers_of_em_objects_satisfy_the_identities(field, n):
    # the full check, which symmetric_power no longer runs, is the oracle
    k = eilenberg_maclane(field, 1, n, n + 2)
    for d in (2, 3, 4):
        symmetric_power(k, d).check_identities()


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


# ----------------------------------------------- decalage vs the brute force

def _certified_by_count(q, n, d, T):
    """Certified degree of Sym^d K(F^q, n), d >= 1: through T when the
    counted covering complex reaches its natural top d*n, else one short of
    its last level, but at least n - 1, as no level below n has chains."""
    built_to = len(_covering_dims(q, n, d, T)) - 1
    return T if d * n <= built_to else max(built_to - 1, n - 1)


def _brute_force_piece(field, n, d, T):
    """(dims, certified degree) of Sym^d K(F, n) from its covering complex."""
    cx, built_to = sym_power_covering_complex(field, n, d, T)
    certified = T if d * n <= built_to else max(built_to - 1, n - 1)
    return {m: v for m, v in cx.homology_dims().data.items()
            if m <= certified and v}, certified


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["F2", "F3", "Q"])
def test_decalage_matches_the_brute_force(field, dim_budget):
    # sym_power_homology reads one generator off Gamma^d K(F, n - 2), or
    # off Lambda^d(F) for n = 1; the covering complex of Sym^d K(F, n) it
    # replaces must give the same dims and certified degree
    grid = [(T, budget) for T in (4, 6, 8) for budget in (50, 2000)]
    for n in range(1, 5):
        for d in range(1, 7):
            for T, budget in grid + [(5, DIM_BUDGET)]:
                dim_budget(budget)
                h = sym_power_homology(field, 1, n, d, T)
                assert (h.data, h.certified_degree) == _brute_force_piece(
                    field, n, d, T), (n, d, T, budget)


@pytest.mark.parametrize("field,n,d,T,dims", [
    (GF2, 3, 2, 8, {5: 1, 6: 1}),
    (GF3, 3, 3, 9, {7: 1, 8: 1}),
    (GF2, 4, 2, 8, {6: 1, 7: 1, 8: 1}),
])
def test_decalage_pins_brute_force_examples(field, n, d, T, dims):
    assert _brute_force_piece(field, n, d, T) == (dims, T)
    h = sym_power_homology(field, 1, n, d, T)
    assert (h.data, h.certified_degree) == (dims, T)


def _exterior_on_delta_classes(n, T):
    """{(weight, degree): dim} through degree T of the exterior algebra on
    the classes delta_I x of pi_* Sym K(F_2, n): x in degree n, delta_i
    applied innermost first with 2 <= i <= the degree of the class it acts
    on, each later i at least twice the one before; delta_I x has degree
    n + sum(I) and weight 2**len(I) (Dwyer 1980, Goerss 1990)."""
    classes, frontier = [], [(n, 1, 2)]  # (degree, weight, least next i)
    while frontier:
        deg, weight, low = frontier.pop()
        classes.append((deg, weight))
        frontier += [(deg + i, 2 * weight, 2 * i)
                     for i in range(low, deg + 1) if deg + i <= T]
    dims = {(0, 0): 1}
    for deg, weight in classes:
        for (w, m), v in list(dims.items()):
            if m + deg <= T:
                key = (w + weight, m + deg)
                dims[key] = dims.get(key, 0) + v
    return dims


@pytest.mark.parametrize("n,T", [(2, 12), (3, 12), (3, 16), (4, 14), (5, 13),
                                 (6, 12)])
def test_decalage_over_f2_is_exterior_on_the_delta_classes(n, T):
    # pi_{m + 2d} Sym^d K(F_2, n) = H_m Gamma^d K(F_2, n - 2), exact below
    # the top level T - 2d + 1; weights past (T - n + 2) / 2 start above T
    closed = _exterior_on_delta_classes(n, T)
    top_weight = (T - n + 2) // 2
    assert all(w <= top_weight for w, m in closed)
    for d in range(1, top_weight + 1):
        h = divided_power_covering_complex(GF2, n - 2, d, T - 2 * d + 1
                                           ).homology_dims()
        assert {m: closed.get((d, m), 0) for m in range(T + 1)} == {
            m: h[m - 2 * d] if m >= 2 * d else 0 for m in range(T + 1)}, d


def test_divided_power_merge_is_the_multinomial():
    assert _divided_power_merge((0, 1, 2), (0, 1, 2)) == 1
    assert _divided_power_merge((0, 1, 2), (0, 0, 1)) == 2  # x y -> 2 x^[2]
    assert _divided_power_merge((0, 0, 1), (0, 0, 0)) == 3  # x^[2] y -> 3 x^[3]
    assert _divided_power_merge((0, 0, 1, 1), (2, 2, 2, 2)) == 6


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


@pytest.mark.parametrize("field", [QQ, GF3])
@pytest.mark.parametrize("q", [1, 2])
def test_extended_algebra_equals_the_algebra_built_at_that_weight(field, q):
    n, T, W = 2, 4, 1
    small = sphere_algebra(field, q, n, T, W)
    ext = small.extended(W + 2)
    direct = sphere_algebra(field, q, n, T, W + 2)
    assert (ext.field, ext.q, ext.n, ext.T, ext.W) == (field, q, n, T, W + 2)
    assert all(ext.components[d] is small.components[d] for d in range(W + 1))
    for comp in ext.components[W + 1:]:
        comp.check_identities()
    assert ext.monomials == direct.monomials
    for a, b in zip(ext.components, direct.components):
        assert a.level_dims == b.level_dims
        assert a.faces == b.faces and a.degens == b.degens
    for m in range(T + 1):
        for a in range(W + 3):
            for b in range(W + 3 - a):
                for ia in range(ext.components[a].level_dims[m]):
                    for ib in range(ext.components[b].level_dims[m]):
                        assert (ext.multiply_elements(a, {ia: 1}, b, {ib: 1}, m)
                                == direct.multiply_elements(a, {ia: 1}, b,
                                                            {ib: 1}, m))
    assert small.extended(W) is small
    with pytest.raises(ValueError):
        small.extended(W - 1)


def test_multiplication_weight_truncation():
    A = sphere_algebra(QQ, 1, 2, 3, 2)
    x = {0: Fraction(1)}
    assert A.multiply_elements(1, x, 1, x, 2) == {0: Fraction(1)}
    out = A.multiply_elements(1, x, 2, x, 2)
    assert out == {}


def test_multiplication_is_monomial_merge():
    A = sphere_algebra(QQ, 1, 2, 4, 2)
    # level 3 of the generators is 3-dimensional; x_i * x_j lands on the
    # monomial {i, j} with coefficient 1
    mono_index = {mono: i for i, mono in enumerate(A.monomials[2][3])}
    x01 = {mono_index[(0, 1)]: Fraction(1)}
    assert A.multiply_elements(1, {0: 1}, 1, {1: 1}, 3) == x01
    assert A.multiply_elements(1, {1: 1}, 1, {0: 1}, 3) == x01


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


def test_sphere_homotopy_budget_degrades_honestly(dim_budget):
    generous = sphere_homotopy(QQ, 1, 2, 5, 2)
    dim_budget(2)
    starved = sphere_homotopy(QQ, 1, 2, 5, 2)
    assert starved.certified_degree < generous.certified_degree
    assert not all(starved.stable_flags)
    for m in range(starved.certified_degree + 1):
        assert starved.dims[m] == generous.dims[m]


def _weights_by_convolution(field, q, n, T, D):
    """Sym^d K(F^q, n) for d = 0..D, every weight from one-generator pieces
    built for every d, tails included: the weight-d part of the q-th power
    of their sum, kept through the degree its counted q-generator complex
    certifies."""
    pieces = [sym_power_homology(field, 1, n, d, T) for d in range(D + 1)] if q else []
    # power[w][m]: weight w, degree m <= T, of the power taken so far
    power = [[1] + [0] * T] + [[0] * (T + 1)] * D
    for _ in range(q):
        power = [[sum(power[b][i] * pieces[w - b][m - i]
                      for b in range(w + 1) for i in range(m + 1))
                  for m in range(T + 1)]
                 for w in range(D + 1)]
    weights = []
    for d in range(D + 1):
        certified = T if d == 0 or q == 0 else _certified_by_count(q, n, d, T)
        assert all(h.certified_degree >= certified for h in pieces[:d + 1])
        weights.append(HomotopyDims(
            {m: v for m, v in enumerate(power[d]) if m <= certified}, certified))
    return weights


def _sphere_homotopy_weight_by_weight(field, q, n, T, W):
    """(dims, certified degree, flags) of sphere_homotopy, computing every
    weight 0..W+1 in turn."""
    weights = _weights_by_convolution(field, q, n, T, W + 1)
    per_weight, check = weights[:W + 1], weights[W + 1]
    certified = min([T] + [h.certified_degree for h in per_weight])
    dims = [sum(h[m] for h in per_weight if h.certified_degree >= m)
            for m in range(T + 1)]
    flags = [check.certified_degree >= m and all(check[j] == 0 for j in range(m + 1))
             for m in range(T + 1)]
    return dims, certified, flags


@pytest.mark.parametrize("field", [GF2, QQ], ids=["F2", "Q"])
def test_sphere_homotopy_stops_at_the_first_tail_weight(field, dim_budget):
    # small budgets put the first tail weight, certified below n, inside
    # W <= 6
    tails = 0
    for q in (0, 1, 2, 3):
        for n in (1, 2, 3):
            for T in range(n, n + 3):
                for budget in (2, 5, 50):
                    dim_budget(budget)
                    tails += q and _certified_by_count(q, n, 6, T) < n
                    for W in range(7):
                        r = sphere_homotopy(field, q, n, T, W)
                        want = _sphere_homotopy_weight_by_weight(field, q, n, T, W)
                        assert (r.dims, r.certified_degree, r.stable_flags) == want
    assert tails == 75  # of the 81 cases with q >= 1, weight 6 is a tail weight


def test_tail_weights_match_the_built_complex_and_stay_tails(dim_budget):
    # a weight certified below n is a tail weight, read off its count: it
    # must match the convolution of built pieces, and every later weight
    # must be a tail weight too
    for q in (1, 2, 3):
        for n in (1, 2, 3):
            for T in range(n, n + 4):
                for budget in (2, 50, 20_000):
                    dim_budget(budget)
                    built = _weights_by_convolution(GF3, q, n, T, 7)
                    seen = False
                    for d in range(1, 40):
                        tail = _certified_by_count(q, n, d, T) < n
                        assert seen <= tail, (q, n, T, budget, d)
                        seen = tail
                        if tail and d < 8:
                            h = sym_power_homology(GF3, q, n, d, T)
                            assert (h.data, h.certified_degree) == (
                                {}, built[d].certified_degree)
                            assert built[d].data == {}


@pytest.mark.parametrize("q", [1, 2, 3])
def test_sphere_homotopy_counts_each_covering_complex_once(
        q, dim_budget, monkeypatch):
    # within one call every (q, n, d, T) covering complex is counted at
    # most once: the certified degree of a weight is read from one count
    count = scalg.symalg._covering_dims
    calls = []

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(scalg.symalg, "_covering_dims", counted)
    for n in (1, 2, 3):
        for T in range(n, n + 3):
            for budget in (2, 50, 20_000):
                dim_budget(budget)
                for W in (0, 1, 3, 6):
                    calls.clear()
                    sphere_homotopy(GF2, q, n, T, W)
                    assert calls and len(set(calls)) == len(calls), (n, T, budget, W)


def test_huge_weight_bound_does_not_enumerate_every_weight(
        limit_weight_pieces, dim_budget):
    # past the first tail weight (9, 4 and 3 for q = 1, 2, 3) the output
    # no longer depends on W, except that q = 2, 3 certify less once level
    # n of weight W alone exceeds the budget (W >= 50); q = 0 builds no
    # complex, so it comes after a case that fails where every weight is
    # enumerated
    cases = [(1, 6), (2, 5), (3, 4), (0, 4)]
    dim_budget(50)
    want = [_sphere_homotopy_weight_by_weight(GF2, q, 2, T, 60) for q, T in cases]
    series = sphere_series_charp(1, 2, 2, 3, W=60)
    calls = limit_weight_pieces(100)
    W = 10**9
    for (q, T), expected in zip(cases, want):
        r = sphere_homotopy(GF2, q, 2, T, W)
        assert (r.dims, r.certified_degree, r.stable_flags) == expected
    huge = sphere_series_charp(1, 2, 2, 3, W=W)
    assert huge.coeffs == series.coeffs
    dim_budget(DIM_BUDGET)
    assert sphere_homotopy(GF3, 1, 2, 2, W).dims == [1, 0, 1]
    assert 0 < len(calls) <= 100


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


def test_indecomposables_and_hurewicz_refuse_an_algebra_without_weight_one():
    b = eilenberg_maclane(QQ, 1, 2, 4)
    A = WeightGradedAlgebra(b, [symmetric_power(b, 0)])
    for f in (indecomposables, hurewicz):
        with pytest.raises(ValueError, match="^algebra is truncated below weight 1$"):
            f(A)


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


def test_induced_homology_matrices_rejects_a_map_that_is_not_a_chain_map():
    # C: Q <- Q <- Q with d_1 = 1, d_2 = 0; (id, 0, id) breaks d_1 f_1 = f_0 d_1
    one, zero = Mat.identity(QQ, 1), Mat.zero(QQ, 1, 1)
    cx = ChainComplex(QQ, [1, 1, 1], [None, one, zero])
    with pytest.raises(ValueError, match="^not a chain map at level 1$"):
        induced_homology_matrices(cx, cx, [one, zero, one], 1)
    assert induced_homology_matrices(cx, cx, [one, one, one], 2)[2] == one


@pytest.mark.parametrize("up_to", [1, 2])
def test_induced_homology_matrices_checks_the_last_level_and_up_to_plus_one(
        up_to):
    # C: Q <- Q <- Q with d_1 = 0, d_2 = 1; (id, id, 0) breaks
    # d_2 f_2 = f_1 d_2, at the last level given, which is level up_to + 1
    # for up_to = 1: H_1 needs boundaries from level 2 to go to boundaries
    one, zero = Mat.identity(QQ, 1), Mat.zero(QQ, 1, 1)
    cx = ChainComplex(QQ, [1, 1, 1], [None, zero, one])
    with pytest.raises(ValueError, match="^not a chain map at level 2$"):
        induced_homology_matrices(cx, cx, [one, one, zero], up_to)


def test_hurewicz_trivial_algebra_is_all_zero():
    A = sphere_algebra(QQ, 0, 2, 3, 2)
    h = hurewicz(A)
    for s, m in h.items():
        assert m.nrows == 0 and m.ncols == 0


def _block_diagonal_complex(complexes):
    """The direct sum of chain complexes of one field and one top."""
    field = complexes[0].field
    dims = [sum(cx.dims[m] for cx in complexes)
            for m in range(complexes[0].top + 1)]
    return ChainComplex(field, dims, [None] + [
        Mat.block_diag(field, [cx.diffs[m] for cx in complexes])
        for m in range(1, len(dims))])


def _hurewicz_on_the_direct_sum(A, up_to):
    """The Hurewicz matrices as the projection of the direct-sum complex of
    every weight onto its weight-1 summand."""
    normalized = [A.components[d].normalized_chains() for d in range(1, A.W + 1)]
    ideal, quotient = _block_diagonal_complex(normalized), normalized[0]
    chain_maps = [Mat(A.field, n_q, n_i, [{j: 1} if j < n_q else {}
                                          for j in range(n_i)])
                  for n_q, n_i in zip(quotient.dims, ideal.dims)]
    return induced_homology_matrices(ideal, quotient, chain_maps, up_to)


HUREWICZ_ALGEBRAS = [(1, 1, 4, 3), (2, 1, 4, 2), (1, 2, 5, 3), (2, 2, 5, 2),
                     (1, 3, 6, 2), (1, 2, 6, 3)]

# pinned digests of the Hurewicz matrices (degree, shape and entries); F_2
# differs from Q and F_3 at (1, 3, 6, 2) only
HUREWICZ_DIGESTS = dict(zip(HUREWICZ_ALGEBRAS, [
    "13f1ca3c5ee8bb48", "3ca1e129cda43edf", "e5fe4309bb72e6f8",
    "7680e1837eea9082", "645aecb80b13f641", "df94ca454a8efd52"]))


def _matrices_digest(h):
    text = repr([(s, m.nrows, m.ncols, [sorted(c.items()) for c in m.cols])
                 for s, m in sorted(h.items())])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("q,n,T,W", HUREWICZ_ALGEBRAS)
def test_hurewicz_weight_by_weight_equals_the_direct_sum(field, q, n, T, W):
    A = sphere_algebra(field, q, n, T, W)
    h = hurewicz(A)
    assert h == _hurewicz_on_the_direct_sum(A, T - 1)
    assert h[n].ncols >= q
    want = HUREWICZ_DIGESTS[q, n, T, W]
    if field is GF2 and (q, n, T, W) == (1, 3, 6, 2):
        want = "f93b3696c8197d38"
    assert _matrices_digest(h) == want


def test_hurewicz_reads_the_target_classes_once_per_degree(monkeypatch):
    A = sphere_algebra(QQ, 1, 2, 6, 3)
    calls, targets = [], []
    homology_reps = ChainComplex.homology_reps
    induced = scalg.symalg.induced_homology_matrices

    def counted(self, m):
        calls.append((self, m))
        return homology_reps(self, m)

    def induced_seen(src, dst, *args):
        targets.append(dst)
        return induced(src, dst, *args)

    monkeypatch.setattr(ChainComplex, "homology_reps", counted)
    monkeypatch.setattr(scalg.symalg, "induced_homology_matrices", induced_seen)
    hurewicz(A)
    assert len(targets) == A.W and all(t is targets[0] for t in targets)
    assert [m for cx, m in calls if cx is targets[0]] == list(range(A.T))
    # and every higher weight once per degree, as the source of its block
    assert len(calls) == A.W * A.T


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
    A = WeightGradedAlgebra(base, [constant_object(QQ, 3), base])
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
