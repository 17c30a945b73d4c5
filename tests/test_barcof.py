import gc
import io
import json
import math
import random
import sys
import types
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from scalg.cli import _random_complex, main
import scalg.barcof
import scalg.symalg
from scalg.exactfield import (
    GF2, GF3, ColumnEchelon, FieldError, Mat, QQ, axpy, kernel_basis,
    solve,
)
from scalg.simplicial import (
    GradedDims, NormalizedChains, SimplicialError, SimplicialVectorSpace,
    constant_object, gamma,
)
from scalg.symalg import sphere_algebra, symmetric_power
from scalg.barcof import (
    AlgebraMap,
    BarDiagonal,
    CycleError,
    LesVerdict,
    _bar_level_size,
    bar_diagonal,
    cofiber_bounds,
    cofiber_homotopy,
    identity_map,
    les_feasibility,
    power_cofiber_closed_form,
    power_cofiber_tables,
    power_map,
    representing_map,
    zero_map,
)
from scalg.series import from_dims, leq, mul, sphere_series_char0
from mat_helpers import is_zero


# --------------------------------------------------------- representing maps

def check_multiplicative(f, weights, levels=None):
    """phi(x y) = phi(x) phi(y) for a generator x and every basis monomial y
    of each weight w in weights, on the given levels (default all), wherever
    weight w + 1 is represented in source and target."""
    levels = levels if levels is not None else range(f.source.T + 1)
    s = f.weight_ratio
    for w in weights:
        if w + 1 > f.source.W or (w + 1) * s > f.target.W:
            continue
        for m in levels:
            left = f.weight_map(w + 1, m)
            monos1, monosw = f.source.monomials[1][m], f.source.monomials[w][m]
            for i1, col1 in enumerate(f.weight_map(1, m).cols):
                for iw, colw in enumerate(f.weight_map(w, m).cols):
                    prod = f.target.multiply_elements(s, col1, w * s, colw, m)
                    mono = tuple(sorted(monos1[i1] + monosw[iw]))
                    j = f.source.monomial_index(w + 1, m)[mono]
                    assert left.cols[j] == prod, (w, m, i1, iw)


def test_zero_cycle_factors_through_augmentation():
    A = sphere_algebra(QQ, 1, 2, 4, 2)
    f = zero_map(A, 2)
    assert f.weight_ratio == 1
    for m in range(5):
        assert is_zero(f.level_maps[m])


def test_identity_class_gives_identity_on_generators():
    A = sphere_algebra(QQ, 1, 2, 4, 2)
    f = identity_map(A)
    for m in range(5):
        assert f.level_maps[m] == Mat.identity(QQ, A.base.level_dims[m])


def test_square_class_map_builds_and_verifies():
    # the map representing the square of the degree-2 generator
    A = sphere_algebra(QQ, 1, 2, 5, 3)
    comp = A.components[2]
    ncx = comp.normalized_chains()
    reps, _ = ncx.homology_reps(4)
    assert reps.ncols == 1
    f = representing_map(A, 4, 2, dict(reps.cols[0]), source_W=1)
    assert f.weight_ratio == 2
    assert f.source.n == 4 and f.target.n == 2
    check_multiplicative(f, weights=(1,), levels=range(3))


def test_rebuilt_returns_self_unless_a_truncation_grows():
    A = sphere_algebra(QQ, 1, 2, 4, 2)
    f = identity_map(A)
    assert f.rebuilt() is f
    assert f.rebuilt(source_W=2, target_W=2) is f
    g = f.rebuilt(target_W=3)
    assert g is not f
    assert (g.source.W, g.target.W, g.target.T) == (2, 3, 4)
    assert g.level_maps == f.level_maps
    g.target.components[3].check_identities()
    h = f.rebuilt(source_W=4, target_W=4)
    for comp in h.source.components[3:] + h.target.components[3:]:
        comp.check_identities()


@pytest.mark.parametrize("r", [1, 2])
def test_first_power_map_represents_the_generator(r):
    # power_map reads every class off homology_reps; for s = 1 that is the
    # generator {0: 1} of the weight-1 component, once written down as is
    T, W = cofiber_bounds(r, 1)[:2]
    f = power_map(r, 1, T, W)
    target = sphere_algebra(QQ, 1, 2 * r, T, W)
    g = representing_map(target, 2 * r, 1, {0: 1}, source_W=W)
    assert f.level_maps == g.level_maps
    assert (f.source.W, f.target.W) == (g.source.W, g.target.W)


def test_rebuilt_map_equals_the_map_built_on_the_larger_algebras():
    # extending the algebras gives the map that representing the class
    # afresh on the larger algebras gives
    f = power_map(1, 2, 6, 2)
    g = f.rebuilt(source_W=2, target_W=4)
    target = sphere_algebra(QQ, 1, 2, 6, 4)
    reps, _ = target.components[2].normalized_chains().homology_reps(4)
    h = representing_map(target, 4, 2, dict(reps.cols[0]), source_W=2)
    assert g.level_maps == h.level_maps
    for w in range(3):
        for m in range(7):
            assert g.weight_map(w, m) == h.weight_map(w, m)
    a, b = bar_diagonal(g, 2, 5, 4), bar_diagonal(h, 2, 5, 4)
    assert a.level_dims == b.level_dims
    ca, cb = a.normalized_chains(), b.normalized_chains()
    assert ca.dims == cb.dims and ca.diffs == cb.diffs


@pytest.mark.parametrize("make_map", [
    lambda: identity_map(sphere_algebra(QQ, 2, 2, 4, 3)),
    lambda: identity_map(sphere_algebra(GF3, 1, 1, 4, 4)),
    lambda: power_map(1, 2, 6, 2).rebuilt(source_W=2, target_W=5),
])
def test_weight_maps_are_multiplicative(make_map):
    # phi(x y) = phi(x) phi(y) for a generator x, on every weight and level
    f = make_map()
    check_multiplicative(f, weights=range(1, f.source.W))


def test_representing_map_rejects_non_cycle():
    A = sphere_algebra(QQ, 1, 2, 5, 3)
    ncx = A.components[2].normalized_chains()
    # a normalized chain in degree 3 is never a cycle unless its boundary
    # vanishes; build one with nonzero boundary and offer it as a class
    bad = {0: Fraction(1)}
    assert ncx.differential(3).apply(bad)
    with pytest.raises(CycleError):
        representing_map(A, 3, 2, bad)


@pytest.mark.parametrize("key", [1, -1, 100, "a", 0.0])
def test_representing_map_rejects_a_class_index_outside_the_basis(key):
    A = sphere_algebra(QQ, 1, 2, 4, 2)
    assert A.components[1].normalized_chains().dims[2] == 1
    representing_map(A, 2, 1, {0: 1})
    with pytest.raises(CycleError, match="^class index %s outside the "
                       "1-dimensional degree-2 normalized chains$" % repr(key)):
        representing_map(A, 2, 1, {key: 1})


# The lift and the spreading as representing_map computed them before it
# lifted by the Moore projection and spread by single degeneracies: the
# oracles of the two.

def stacked_kernel_lift(component, ncx, n, class_vec):
    """The combination of a kernel basis of d_0, ..., d_{n-1}, stacked into
    one matrix, whose normalized class is class_vec (found by solve)."""
    F, dim = component.field, component.level_dims[n]
    if n == 0:
        moore = Mat.identity(F, dim)
    else:
        faces = [component.operator(n, i, n - 1) for i in range(n)]
        rows = component.level_dims[n - 1]
        moore = kernel_basis(Mat(F, n * rows, dim, [
            {i * rows + r: v for i, d in enumerate(faces)
             for r, v in d.cols[j].items()} for j in range(dim)]))
    proj = Mat(F, ncx.dims[n], moore.ncols,
               [ncx.project(n, dict(col)) for col in moore.cols])
    coeffs = solve(proj, dict(class_vec))
    assert coeffs is not None
    return moore.apply(coeffs)


def degeneracy_word(sigma):
    """The s_i word of a surjection, innermost first."""
    word, sigma = [], list(sigma)
    while True:
        for i in range(len(sigma) - 1):
            if sigma[i] == sigma[i + 1]:
                word.append(i)
                del sigma[i + 1]
                break
        else:
            return word


def spread_by_degeneracy_words(K, component, n, lifts):
    """Level maps sending basis vector (sigma, k, e) of K(V, n) to the
    operator of sigma applied to lifts[e], one s_i of its word at a time."""
    maps = []
    for m in range(K.T + 1):
        cols = []
        for sigma, _, e in K.basis_labels[m]:
            vec, level = dict(lifts[e]), n
            for i in reversed(degeneracy_word(sigma)):
                vec = component.operator(level, i, level + 1).apply(vec)
                level += 1
            cols.append(vec)
        maps.append(Mat(component.field, component.level_dims[m],
                        K.level_dims[m], cols))
    return maps


def with_operator(obj, key, mat):
    """obj's field, level dims and operators, except mat at key (m, i, to)."""
    return SimpleNamespace(
        field=obj.field, level_dims=obj.level_dims,
        operator=lambda *at: mat if at == key else obj.operator(*at))


def lift_test_objects(field, conjugated_gamma):
    """Sphere components, random gamma objects and a conjugated gamma
    object, whose degeneracy images have many entries."""
    objs = [sphere_algebra(field, q, n, T, W).components[w]
            for q, n, T, W in [(1, 1, 4, 3), (2, 1, 3, 2), (1, 2, 5, 3),
                               (2, 2, 4, 2), (1, 3, 5, 2)]
            for w in range(1, W + 1)]
    rng = random.Random(25)
    for _ in range(12):
        T = rng.randint(1, 4)
        objs.append(gamma(field, *_random_complex(rng, field, T), T))
    return objs + [conjugated_gamma(field, 4)[1]]


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_moore_lift_equals_the_stacked_kernel_lift(field, conjugated_gamma):
    # every normalized cycle of every degree, one by one and summed
    moved = 0
    for obj in lift_test_objects(field, conjugated_gamma):
        ncx = obj.normalized_chains()
        for n in range(obj.T + 1):
            cycles = [dict(col) for col in kernel_basis(ncx.differential(n)).cols]
            total = {}
            for c in cycles:
                axpy(total, 1, c, field.characteristic)
            for c in cycles + [total] * bool(cycles):
                lift = scalg.barcof._moore_lift(obj, ncx, n, c)
                assert lift == stacked_kernel_lift(obj, ncx, n, c)
                moved += lift != ncx.include(n, c)
    assert moved  # some lift is not the class's vector on the basis rows


@pytest.mark.parametrize("make_map", [
    lambda: power_map(1, 2, 6, 2),
    lambda: power_map(1, 3, 8, 2),
] + [
    lambda q=q, n=n, build=build: build(sphere_algebra(QQ, q, n, n + 3, 2))
    for q, n in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)]
    for build in (identity_map, lambda A: zero_map(A, A.n, source_W=2))
])
def test_level_maps_equal_the_degeneracy_word_spreading(make_map):
    # the stacked-kernel lift of each generator's class, spread by the
    # degeneracy word of each surjection: the map as built before
    f = make_map()
    K, n, s = f.source.base, f.source.n, f.weight_ratio
    component = f.target.components[s]
    ncx = component.normalized_chains()
    lifts = [stacked_kernel_lift(component, ncx, n, ncx.project(n, col))
             for col in f.level_maps[n].cols]
    assert f.level_maps == spread_by_degeneracy_words(K, component, n, lifts)


def lift_or_cycle_error(obj, ncx, n, class_vec):
    try:
        return scalg.barcof._moore_lift(obj, ncx, n, class_vec)
    except CycleError as err:
        return str(err)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_skipping_a_projection_step_fails_the_moore_check(field,
                                                          conjugated_gamma):
    # on a gamma object or a sphere component a class's vector on the
    # basis rows has every face but the last zero already; on the
    # conjugated object it does not.  Skipping step i (s_i made zero)
    # either changes nothing or leaves a face nonzero, which is caught
    w = conjugated_gamma(field, 4)[1]
    ncx = w.normalized_chains()
    caught = set()
    for n in (2, 3):
        for k in range(ncx.dims[n]):
            want = lift_or_cycle_error(w, ncx, n, {k: 1})
            for i in range(n):
                skip = with_operator(w, (n - 1, i, n), Mat.zero(
                    field, w.level_dims[n], w.level_dims[n - 1]))
                try:
                    got = lift_or_cycle_error(skip, ncx, n, {k: 1})
                except AssertionError as err:
                    assert str(err) == ("lift is not the Moore representative "
                                        "of its class")
                    caught.add((n, i))
                else:
                    assert got == want
    # the steps caught on some basis vector; over Q, every step
    assert caught == {QQ: {(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)},
                      GF2: {(2, 1), (3, 1), (3, 2)},
                      GF3: {(2, 0), (3, 0)}}[field]


def test_a_column_spread_by_the_wrong_degeneracy_fails_the_simplicial_check():
    f = power_map(1, 2, 6, 2)
    K, component = f.source.base, f.target.components[2]
    lifts = [dict(col) for col in f.level_maps[4].cols]
    assert scalg.barcof._spread(K, component, 4, lifts) == f.level_maps
    for m in (5, 6):
        wrong = with_operator(component, (m - 1, 0, m),
                              component.operator(m - 1, 1, m))
        with pytest.raises(SimplicialError, match="^generator images do not "
                           "commute with "):
            AlgebraMap(f.source, f.target, 2,
                       scalg.barcof._spread(K, wrong, 4, lifts))


def test_representing_map_runs_no_elimination(monkeypatch):
    # the normalized chains of a sphere component drop coordinates, and
    # the lift and its spreading are formulas: no echelon is built
    A = sphere_algebra(QQ, 2, 2, 6, 3)
    class_vec = dict(A.components[2].normalized_chains().homology_reps(4)[0].cols[0])

    def refuse(*args, **kwargs):
        raise AssertionError("elimination")

    monkeypatch.setattr(ColumnEchelon, "__init__", refuse)
    identity_map(A)
    representing_map(A, 4, 2, class_vec)


@pytest.mark.parametrize("ratio", [-2, -1, 0, 1.0, True])
def test_algebra_map_rejects_a_weight_ratio_that_is_no_positive_int(ratio):
    # a ratio of -2 once read the target component of weight -2, which
    # made the bar diagonal's levels silently zero
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 2))
    with pytest.raises(ValueError, match="^weight ratio .* is not a positive int$"):
        AlgebraMap(f.source, f.target, ratio, f.level_maps)


def test_algebra_map_rejects_a_short_level_map_list():
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 2))
    with pytest.raises(SimplicialError, match="^level map list length 3, need 5$"):
        AlgebraMap(f.source, f.target, 1, f.level_maps[:3])


def test_algebra_map_rejects_level_maps_that_miss_a_face():
    # the identity of K(Q, 2) doubled at level 3 breaks d_0 out of level 3
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 1))
    maps = list(f.level_maps)
    maps[3] = Mat(QQ, maps[3].nrows, maps[3].ncols,
                  [{j: 2 * v for j, v in col.items()} for col in maps[3].cols])
    with pytest.raises(SimplicialError, match="^generator images do not "
                       "commute with d_0 at level 3$"):
        AlgebraMap(f.source, f.target, 1, maps)


def test_algebra_map_rejects_level_maps_that_miss_a_degeneracy():
    # K(Q, 1) -> K(Q, 2) through level 2, zero below level 2 and the first
    # coordinate there: every face lands in a zero level, so all commute,
    # but s_1 sends the level-1 generator to that coordinate
    source = sphere_algebra(QQ, 1, 1, 2, 1)
    target = sphere_algebra(QQ, 1, 2, 2, 1)
    maps = [Mat.zero(QQ, 0, 0), Mat.zero(QQ, 0, 1), Mat(QQ, 1, 2, [{0: 1}, {}])]
    with pytest.raises(SimplicialError, match="^generator images do not "
                       "commute with s_1 at level 1$"):
        AlgebraMap(source, target, 1, maps)


def test_algebra_map_rejects_a_level_map_of_the_wrong_shape_or_field():
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 1))
    maps = list(f.level_maps)
    maps[2] = Mat.zero(QQ, maps[2].nrows, maps[2].ncols + 1)
    with pytest.raises(SimplicialError, match="^level map shape at level 2$"):
        AlgebraMap(f.source, f.target, 1, maps)
    maps[2] = Mat.zero(GF3, maps[2].nrows, maps[2].ncols - 1)
    with pytest.raises(FieldError, match="^level map field mismatch at level 2$"):
        AlgebraMap(f.source, f.target, 1, maps)


# ------------------------------------------------------------- bar diagonal

def test_identity_cofiber_is_ground_field():
    A = sphere_algebra(QQ, 1, 2, 4, 3)
    f = identity_map(A)
    h = bar_diagonal(f, 2, 4, 2).homotopy_dims()
    assert h.certified_degree == 3
    assert [h[m] for m in range(4)] == [1, 0, 0, 0]


def test_zero_map_cofiber_matches_series_product():
    # cofiber of the trivial self-map of S(2): homotopy follows the product
    # of the even and the suspended odd sphere series in low degrees
    B = sphere_algebra(QQ, 1, 2, 4, 3)
    g = zero_map(B, 2, source_W=2)
    h = bar_diagonal(g, 2, 4, 2).homotopy_dims()
    want = mul(sphere_series_char0(1, 2, 3), sphere_series_char0(1, 3, 3))
    for m in range(h.certified_degree + 1):
        assert h[m] == want[m]


def test_bar_diagonal_validates_truncations():
    A = sphere_algebra(QQ, 1, 2, 3, 1)
    f = identity_map(A, source_W=1)
    with pytest.raises(ValueError):
        bar_diagonal(f, 2, 5, 1)  # T above the algebra truncation
    with pytest.raises(ValueError):
        bar_diagonal(f, 2, 3, 4)  # W above the target truncation


def test_bar_diagonal_checks_the_target_weight_and_the_signs_of_the_bounds():
    # a source truncated at weight 5 passes its own check, so W = 3 stops
    # at the target's (W = 1); the field check cannot fire, since
    # AlgebraMap already refuses a map between two fields
    target = sphere_algebra(QQ, 1, 2, 3, 1)
    f = zero_map(target, 2, source_W=5)
    with pytest.raises(ValueError, match="^target algebra truncated below weight 3$"):
        bar_diagonal(f, 2, 3, 3)
    g = identity_map(target)
    for N, T, W in [(-1, 3, 1), (1, -1, 1), (1, 3, -1)]:
        with pytest.raises(ValueError, match="^bounds must be nonnegative$"):
            bar_diagonal(g, N, T, W)


def test_bar_dims_monotone_in_bounds():
    A = sphere_algebra(QQ, 1, 2, 4, 3)
    f = identity_map(A)
    small = bar_diagonal(f, 1, 4, 1)
    big = bar_diagonal(f, 2, 4, 2)
    bigger = bar_diagonal(f, 3, 4, 3)
    for m in range(5):
        assert small.level_dims[m] <= big.level_dims[m] <= bigger.level_dims[m]
    # the tuples enumerated inside each window, pinned
    assert small.level_dims == [1, 1, 4, 13, 31]
    assert big.level_dims == [1, 1, 10, 91, 496]
    assert bigger.level_dims == [1, 1, 20, 455, 5456]


@pytest.mark.parametrize("which,N,T,W", [
    ("power", 2, 6, 2), ("power", 3, 6, 3), ("identity", 2, 4, 2),
])
def test_bar_basis_by_weight_slice_equals_the_filtering_loop(which, N, T, W,
                                                             full_bar):
    # the bar counts every tuple of the filtering loop's window and keeps
    # the ones its mask test finds nondegenerate, in the loop's order
    if which == "power":
        f = power_map(1, 2, 6, W)
    else:
        f = identity_map(sphere_algebra(QQ, 1, 2, 4, 3))
    bases, level_dims, _, degenerate = scalg.barcof._bar_levels(f, N, T, W)
    every = full_bar(f, N, T, W)[1]  # the filtering loop's window
    assert level_dims == [len(tuples) for tuples in every]
    assert bases == [[t for t in tuples if not degenerate(m, t)]
                     for m, tuples in enumerate(every)]
    assert sum(map(len, bases)) > T + 1  # some level keeps several tuples


def test_cofiber_homotopy_flags():
    A = sphere_algebra(QQ, 1, 2, 4, 3)
    f = identity_map(A)
    dims, flags, certified = cofiber_homotopy(f, 2, 4, 2)
    assert certified >= 3
    assert flags[:4] == [True, True, True, True]
    assert [dims[m] for m in range(4)] == [1, 0, 0, 0]


def bar_two_weights_up(f, T, W):
    """Homotopy of the bar of f at (floor((W + 2) / s), T, W + 2), f moved
    onto the algebras that bar needs: the oracle of the flags."""
    top = (W + 2) // f.weight_ratio
    g = f.rebuilt(source_W=top, target_W=W + 2)
    return bar_diagonal(g, top, T, W + 2).homotopy_dims()


# (r, s, T, W, N): cofiber_bounds' default W at a small T for each power
# map, a W below it (T = 8, W = 1 is `cofiber -r 1 -s 2 -W 1 -T 8`), and
# N = 0 < W // s, where the skeletal bound is the one that acts
CONNECTIVITY_CASES = [
    (1, 1, 3, None, None), (1, 2, 5, None, None), (2, 1, 5, None, None),
    (1, 3, 6, None, None), (1, 1, 4, 1, None), (1, 2, 8, 1, None),
    (2, 1, 5, 0, None), (1, 3, 7, 2, None), (1, 1, 4, 1, 0), (1, 2, 5, 2, 0),
]


@pytest.mark.parametrize("r,s,T,W,N", CONNECTIVITY_CASES)
def test_power_cofiber_flags_hold_two_weights_up(r, s, T, W, N):
    # every flagged degree is the bar's two weights up and the closed form;
    # for the power map the weight bound is 2r(W + 1) and the skeletal one
    # (N + 1)(2rs + 1) - 2
    T, W, N = cofiber_bounds(r, s, T, W, N)
    f = power_map(r, s, T, W)
    dims, flags, certified = cofiber_homotopy(f, N, T, W)
    skeletal = (N + 1) * (2 * r * s + 1) - 2 if N < W // s else T
    assert certified == min(T - 1, 2 * r * (W + 1) - 1, skeletal)
    assert flags == [m <= certified for m in range(T + 1)]
    big = bar_two_weights_up(f, T, W)
    closed = power_cofiber_closed_form(r, s, T)[0]
    assert [dims[m] for m in range(certified + 1)] == closed[:certified + 1]
    assert [big[m] for m in range(certified + 1)] == closed[:certified + 1]
    if skeletal < T:  # the N-skeleton is wrong right past its bound
        assert dims[certified + 1] != closed[certified + 1]


@pytest.mark.parametrize("make_map", [
    lambda A: zero_map(A, 2, source_W=A.W), identity_map,
], ids=["zero", "identity"])
@pytest.mark.parametrize("field", [GF2, GF3], ids=["F2", "F3"])
@pytest.mark.parametrize("T,W,N", [(4, 1, 1), (4, 1, 0), (3, 2, 2)])
def test_self_map_cofiber_flags_hold_two_weights_up(make_map, field, T, W, N):
    # the zero and identity self-maps of S(2) over F_p: Sym^d K(F, 2) starts
    # in degree 2d, so the weight bound is 2(W + 1) and the skeletal one
    # 3(N + 1) - 2
    f = make_map(sphere_algebra(field, 1, 2, T, W))
    dims, flags, certified = cofiber_homotopy(f, N, T, W)
    skeletal = 3 * (N + 1) - 2 if N < W else T
    assert certified == min(T - 1, 2 * (W + 1) - 1, skeletal)
    assert flags == [m <= certified for m in range(T + 1)]
    big = bar_two_weights_up(f, T, W)
    assert all(dims[m] == big[m] for m in range(certified + 1))


@pytest.mark.parametrize("field,nA,nB,T,certified,wrong", [
    # Sym^2 K(F_2, 3) starts in degree 5 = 2d + n - 2, below the rational
    # 3d = 6, which would flag degree 5
    (GF2, 3, 3, 6, 4, 5),
    # one a-slot of weight W + 1 = 2 starts in degree 1 + 2 * 2 = 5, below
    # the b-weight 2 of K(Q, 4) (degree 8), which would flag degree 7
    (QQ, 2, 4, 8, 4, 7),
], ids=["F2-decalage", "Q-a-slot"])
def test_each_term_of_the_connectivity_bound_is_needed(field, nA, nB, T,
                                                       certified, wrong):
    # the zero map S(nA) -> S(nB) at W = 1: the flags stop at certified,
    # and the bar one weight up differs in degree wrong, which a bound
    # without the term named above would have flagged
    f = zero_map(sphere_algebra(field, 1, nB, T, 2), nA, source_W=2)
    dims, flags, got = cofiber_homotopy(f, 1, T, 1)
    big = bar_diagonal(f, 2, T, 2).homotopy_dims()
    assert got == certified
    assert all(dims[m] == big[m] for m in range(certified + 1))
    assert dims[wrong] != big[wrong]


# ------------------------------------------- normalized bar chains vs oracle

# (map, N, T, W): the two maps of S(2) above, over Q and over F_3; the
# cofiber job's map (r=1, s=2, W=2) at (N, W) and one weight up, the
# latter also the acceptance test's (r=1, s=2) cofiber with N = W; that
# cofiber one weight up again; and the other two power cofibers of the
# acceptance test at their (N, W)
BAR_CASES = {
    "identity": (lambda: identity_map(sphere_algebra(QQ, 1, 2, 4, 3)), 2, 4, 2),
    "zero": (lambda: zero_map(sphere_algebra(QQ, 1, 2, 4, 3), 2, source_W=2),
             2, 4, 2),
    "identity-F3": (lambda: identity_map(sphere_algebra(GF3, 1, 2, 4, 3)),
                    2, 4, 2),
    "cofiber-job": (lambda: power_map(1, 2, 6, 2), 2, 6, 2),
    "cofiber-job-check": (lambda: power_map(1, 2, 6, 3), 3, 6, 3),
    "power-r1-s2-check": (lambda: power_map(1, 2, 6, 4), 4, 6, 4),
    "power-r1-s3": (lambda: power_map(1, 3, 7, 3), 3, 7, 3),
    "power-r2-s2": (lambda: power_map(2, 2, 8, 2), 2, 8, 2),
}


@pytest.mark.parametrize("case", sorted(BAR_CASES))
def test_direct_bar_chains_match_the_generic_normalized_chains(case, full_bar):
    make_map, N, T, W = BAR_CASES[case]
    f = make_map()
    bar = bar_diagonal(f, N, T, W)
    direct = bar.normalized_chains()
    # the generic quotient of the whole object built from the tests' own
    # rules, by its degeneracy matrices, after the full identity check
    full, every = full_bar(f, N, T, W)
    oracle = full.normalized_chains()
    assert bar.level_dims == full.level_dims
    assert direct.bases == [[every[m][r] for r in basis]
                            for m, basis in enumerate(oracle.bases)]
    assert direct.dims == oracle.dims
    assert direct.diffs == oracle.diffs
    # one quotient: both project every tuple to the same normalized vector
    assert isinstance(direct, NormalizedChains)
    for m, tuples in enumerate(every):
        for r, t in enumerate(tuples):
            assert direct.project(m, {t: 1}) == oracle.project(m, {r: 1})
    h, want = direct.homology_dims(), oracle.homology_dims()
    assert h == want and h.certified_degree == want.certified_degree


def reachable(root):
    """Every object reachable from root, through closures but not through
    modules, classes or a function's globals."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        else:
            stack += gc.get_referents(obj)
    return out


def is_bar_tuple(obj):
    """obj has the shape of a bar tuple (slots, b)."""
    return (isinstance(obj, tuple) and len(obj) == 2
            and isinstance(obj[0], tuple) and isinstance(obj[1], tuple)
            and len(obj[1]) == 2
            and all(isinstance(c, tuple) and len(c) == 2 for c in obj[0]))


def test_bar_chains_of_the_cofiber_check_run():
    # the (r=1, s=2) bar one weight above `cofiber -r 1 -s 2 -W 2`, at
    # (3, 6, 3): it counts every tuple of the full levels [1, 1, 4, 20,
    # 112, 561, 2256] and stores these many, the nondegenerate ones; no
    # other tuple is reachable from the built bar
    f = power_map(1, 2, 6, 3)
    bar = bar_diagonal(f, 3, 6, 3)
    assert bar.level_dims == [1, 1, 4, 20, 112, 561, 2256]
    stored = [1, 0, 3, 10, 53, 165, 225]
    bases = bar.normalized_chains().bases
    assert [len(basis) for basis in bases] == stored
    assert bar.normalized_chains().dims == stored
    assert ({id(t) for t in reachable(bar) if is_bar_tuple(t)}
            == {id(t) for basis in bases for t in basis})
    assert [len(basis) for basis in scalg.barcof._bar_levels(f, 3, 6, 3)[0]] == stored


def test_a_face_that_leaves_the_bar_fails_its_construction(monkeypatch):
    # the source product of two weight-1 slots at level 2 also hits a
    # weight-2 monomial past the end of its basis, so an inner face of
    # some nondegenerate level-3 tuple of the identity cofiber's bar at
    # (2, 3, 2) has a term that is no tuple of the bar: building it, and
    # so cofiber_homotopy, raises instead of dropping the term
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 3))
    A = f.source
    real = A.multiply_elements

    def leaky(a, vec_a, b, vec_b, m):
        prod = real(a, vec_a, b, vec_b, m)
        if (a, b, m) == (1, 1, 2):
            prod = {**prod, A.components[2].level_dims[2]: 1}
        return prod

    assert cofiber_homotopy(f, 2, 3, 2)[0].to_list(2) == [1, 0, 0]
    monkeypatch.setattr(A, "multiply_elements", leaky)
    with pytest.raises(AssertionError,
                       match="missing basis tuple inside the window"):
        bar_diagonal(f, 2, 3, 2).homotopy_dims()
    with pytest.raises(AssertionError,
                       match="missing basis tuple inside the window"):
        cofiber_homotopy(f, 2, 3, 2)


def test_cofiber_homotopy_builds_one_bar_diagonal(monkeypatch):
    built = []

    def counted(f, N, T, W):
        built.append((N, T, W))
        return BarDiagonal(f, N, T, W)

    monkeypatch.setattr(scalg.barcof, "bar_diagonal", counted)
    assert_cofiber_job_prints_its_golden_output()
    assert built == [(1, 6, 2)]


@pytest.mark.parametrize("make_map,N,T,W", [
    (lambda: power_map(1, 2, 5, 2), 2, 5, 2),
    (lambda: power_map(1, 1, 4, 3), 3, 4, 3),
    (lambda: zero_map(sphere_algebra(GF2, 1, 2, 4, 3), 2, source_W=3), 2, 4, 2),
    BAR_CASES["identity-F3"],
], ids=["power-r1-s2", "power-r1-s1", "zero-F2", "identity-F3"])
def test_bar_faces_equal_the_products_multiplied_out(make_map, N, T, W,
                                                    full_bar):
    # a unit slot multiplies as the identity without a product computed;
    # the face of every tuple of the window, degenerate ones included,
    # equals the column multiplied out in the whole object
    f = make_map()
    face = scalg.barcof._bar_levels(f, N, T, W)[2]
    full, every = full_bar(f, N, T, W)  # checked on every identity
    units = 0
    for m in range(1, T + 1):
        for r, t in enumerate(every[m]):
            units += (0, 0) in t[0]
            for i in range(m + 1):
                want = {every[m - 1][k]: v
                        for k, v in full.faces[m][i].cols[r].items()}
                assert face(m, i, t) == want, (m, i, t)
    assert units
    assert (full.normalized_chains().diffs
            == bar_diagonal(f, N, T, W).normalized_chains().diffs)


def test_bar_homotopy_builds_no_structure_matrix(monkeypatch):
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("built on the direct path")

    monkeypatch.setattr(SimplicialVectorSpace, "check_identities", refuse)
    monkeypatch.setattr(SimplicialVectorSpace, "normalized_chains", refuse)
    assert bar_diagonal(f, 2, 4, 2).homotopy_dims().to_list(3) == [1, 0, 0, 0]
    assert cofiber_homotopy(f, 2, 4, 2)[0].to_list(3) == [1, 0, 0, 0]


def test_cofiber_job_checks_no_identity_of_a_symmetric_power(monkeypatch):
    # the identities of Sym^d V follow from V's (tests/test_symalg.py checks
    # that _sym_map is a functor), so the cofiber job, which builds Sym^2
    # and Sym^3 of K(Q, 2), must print its golden output without checking
    # them; gamma objects are still checked
    check = SimplicialVectorSpace.check_identities
    power = symmetric_power.__code__
    checked = []

    def guarded(self):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is power and frame.f_locals["d"] >= 2:
                raise AssertionError("checked the identities of Sym^%d"
                                     % frame.f_locals["d"])
            frame = frame.f_back
        checked.append(self)
        return check(self)

    monkeypatch.setattr(SimplicialVectorSpace, "check_identities", guarded)
    assert_cofiber_job_prints_its_golden_output()
    assert checked


def assert_cofiber_job_prints_its_golden_output():
    argv = ["cofiber", "-r", "1", "-s", "2", "-W", "2"]
    golden = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                         / "golden.json").read_text(encoding="utf-8"))
    out = io.StringIO()
    assert main(argv, stdout=out) == 0
    assert out.getvalue() == golden[" ".join(argv)]["stdout"]


def test_power_map_source_and_target_share_their_weight_zero_object():
    f = power_map(1, 2, 6, 2)
    assert f.source.components[0] is f.target.components[0]
    assert f.source.components[0] is constant_object(QQ, 6)


def test_cofiber_job_builds_each_quotient_once(monkeypatch):
    # power_map reads the class off the Sym^2 quotient and representing_map
    # lifts it through the same quotient: one object, whose normalized
    # chains are built once
    normalize = SimplicialVectorSpace.normalized_chains.__code__
    init = NormalizedChains.__init__
    owners = []

    def counted(self, *args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_code is normalize:
            owners.append(frame.f_locals["self"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(NormalizedChains, "__init__", counted)
    assert_cofiber_job_prints_its_golden_output()
    assert len(owners) == 1
    assert all(len(mono) == 2 for level in owners[0].basis_labels for mono in level)


def test_cofiber_job_eliminates_no_degenerate_column(monkeypatch):
    # every degeneracy image of the cofiber job's objects, the bar
    # diagonal's included, is one basis vector, so each quotient drops
    # coordinates and no level goes through a ColumnEchelon; homology
    # representatives and solves still do
    insert = ColumnEchelon.insert
    quotient = (SimplicialVectorSpace.normalized_chains.__code__,
                NormalizedChains.__init__.__code__)
    inserted = []

    def guarded(self, col):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in quotient:
                raise AssertionError("degenerate column eliminated")
            frame = frame.f_back
        inserted.append(col)
        return insert(self, col)

    monkeypatch.setattr(ColumnEchelon, "insert", guarded)
    assert_cofiber_job_prints_its_golden_output()
    assert inserted


def test_bar_simplicial_object_is_checked_when_built(monkeypatch, full_bar):
    # the whole bar diagonal that the oracles build from the tests' rules
    # has the level dims the bar counts, and is checked once, when built
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 3))
    bar = bar_diagonal(f, 2, 4, 2)
    check = SimplicialVectorSpace.check_identities
    calls = []

    def recorded(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(SimplicialVectorSpace, "check_identities", recorded)
    full = full_bar(f, 2, 4, 2)[0]
    assert full.level_dims == bar.level_dims
    assert [d.ncols for d in full.faces[3]] == [bar.level_dims[3]] * 4
    assert [s.nrows for s in full.degens[2]] == [bar.level_dims[3]] * 3
    assert calls == [full]


def corrupted(mat, j, image):
    """A fresh copy of mat with column j replaced by image (a built Mat
    caches its row map, so it is never edited)."""
    cols = list(mat.cols)
    cols[j] = image
    return Mat(mat.field, mat.nrows, mat.ncols, cols)


def test_bar_diagonal_rejects_a_degeneracy_image_with_two_terms():
    # s_0 on K(Q, 2) from level 2 to level 3, one column given a second
    # term, or scaled by 2: the bar tuple (units, generator) at level 2
    # then degenerates to two tuples, or to one tuple with coefficient 2
    for image in ({0: 1, 2: 1}, {2: 2}):
        A = sphere_algebra(QQ, 1, 2, 4, 3)
        f = identity_map(A)
        degens = A.components[1].degens[2]
        assert degens[0].cols[0] == {2: 1}
        degens[0] = corrupted(degens[0], 0, image)
        with pytest.raises(AssertionError, match="single basis tuple"):
            bar_diagonal(f, 2, 4, 2)


def test_bar_diagonal_rejects_a_face_image_with_two_terms():
    # d_0 on K(Q, 2) from level 4 to level 3, one unit column given a
    # second term, or scaled by 2: the face of a bar tuple whose b is that
    # basis vector is then neither one tuple nor zero
    for extra in (1, 0):
        A = sphere_algebra(QQ, 1, 2, 4, 3)
        f = identity_map(A)
        faces = A.components[1].faces[4]
        j, r = next((j, r) for j, r in enumerate(faces[0].unit_rows())
                    if r >= 0)
        image = {r: 1, (r + 1) % faces[0].nrows: 1} if extra else {r: 2}
        faces[0] = corrupted(faces[0], j, image)
        with pytest.raises(AssertionError, match="face image is neither"):
            bar_diagonal(f, 2, 4, 2)


def test_bar_diagonal_rejects_a_degeneracy_that_leaves_the_window(
        monkeypatch):
    # level 3 loses its tuples whose one non-unit slot is the first, which
    # s_1 and s_2 of the level-2 tuples (generator, unit; b) land on
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 3))
    real = scalg.barcof.combinations

    def fewer(pool, k):
        pool = tuple(pool)
        return [c for c in real(pool, k) if (len(pool), c) != (3, (0,))]

    monkeypatch.setattr(scalg.barcof, "combinations", fewer)
    with pytest.raises(AssertionError, match="left the window"):
        bar_diagonal(f, 2, 4, 2)


def test_bar_diagonal_rejects_a_face_term_missing_from_the_basis(
        monkeypatch):
    # level 2 loses its tuples whose one non-unit slot is the first; no
    # degeneracy of a level-1 tuple lands there (level 1 of K(Q, 2) is
    # zero, so its slots are units), but faces of level-3 tuples do
    f = identity_map(sphere_algebra(QQ, 1, 2, 4, 3))
    real = scalg.barcof.combinations

    def fewer(pool, k):
        pool = tuple(pool)
        return [c for c in real(pool, k) if (len(pool), c) != (2, (0,))]

    monkeypatch.setattr(scalg.barcof, "combinations", fewer)
    with pytest.raises(AssertionError,
                       match="missing basis tuple inside the window"):
        bar_diagonal(f, 2, 4, 2)


@pytest.mark.parametrize("make_map,N,T,W", [
    (lambda: power_map(1, 2, 6, 3), 3, 6, 3),
    (lambda: power_map(1, 2, 5, 2), 2, 5, 2),
    (lambda: identity_map(sphere_algebra(GF2, 1, 2, 4, 3)), 2, 4, 2),
    BAR_CASES["identity-F3"],
    BAR_CASES["power-r1-s3"],
], ids=["cofiber-job-check", "N2-T5-W2", "identity-F2", "identity-F3",
        "power-r1-s3"])
def test_bar_degeneracies_hit_the_rows_of_the_generic_images(make_map, N, T,
                                                              W, full_bar):
    # the slot masks mark exactly the tuples that the degeneracy images
    # of the whole object, multiplied out slot by slot, hit, and the bar
    # keeps the others
    f = make_map()
    full, every = full_bar(f, N, T, W)
    bases, _, _, degenerate = scalg.barcof._bar_levels(f, N, T, W)
    for m in range(T + 1):
        hit = {r for s in full.degens[m - 1] for col in s.cols
               for r in col} if m else set()
        assert [degenerate(m, t) for t in every[m]] == [
            r in hit for r in range(full.level_dims[m])]
        assert bases[m] == [t for r, t in enumerate(every[m]) if r not in hit]
    assert bases == bar_diagonal(f, N, T, W).normalized_chains().bases


def test_bar_homotopy_computes_no_degeneracy_image():
    # the degenerate tuples of the (r=1, s=2) bar at (3, 6, 3) are read off
    # the slot masks: each component s_i is read once per level, as the
    # row map that builds the masks, and never again; no degeneracy image
    # of a tuple is computed
    read = next(code for code in scalg.barcof._bar_levels.__code__.co_consts
                if isinstance(code, types.CodeType) and code.co_name == "read")
    calls = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code is read
                and frame.f_locals["to"] > frame.f_locals["m"]):
            calls.append((frame.f_locals["m"], frame.f_locals["i"]))

    def profiled(run):
        sys.setprofile(profile)
        try:
            return run()
        finally:
            sys.setprofile(None)

    f = power_map(1, 2, 6, 3)
    bar = profiled(lambda: bar_diagonal(f, 3, 6, 3))
    assert profiled(bar.homotopy_dims).to_list(5) == [1, 0, 1, 0, 0, 0]
    assert calls == [(m - 1, i) for m in range(1, 7) for i in range(m)]


def test_bar_diagonal_checks_the_face_identities():
    A = sphere_algebra(QQ, 1, 2, 4, 3)
    f = identity_map(A)
    # a map that is not multiplicative breaks d_{m-1} d_m = d_{m-1} d_{m-1}:
    # pushing two weight-1 slots into b one at a time differs from pushing
    # their product, here with the weight-2 part of the map doubled
    for m in range(5):
        g = f.weight_map(2, m)
        f._weight_maps[(2, m)] = Mat(
            QQ, g.nrows, g.ncols,
            [{j: 2 * v for j, v in col.items()} for col in g.cols])
    with pytest.raises(SimplicialError, match="identity fails"):
        bar_diagonal(f, 2, 4, 2)


# ---------------------------------------------------------- the power tables

def test_power_cofiber_tables_r1_s2():
    rep = power_cofiber_tables(1, 2)
    assert rep.certified_degree >= 5
    assert rep.pi_dims[:6] == [1, 0, 1, 0, 0, 0]
    assert all(rep.pi_flags[:6])
    assert rep.hq_dims == GradedDims({2: 1, 5: 1})
    data = rep.to_json_dict()
    assert data["pi"][:6] == [1, 0, 1, 0, 0, 0]
    assert data["hq"] == {"2": 1, "5": 1}


def test_power_cofiber_tables_r1_s1():
    rep = power_cofiber_tables(1, 1, T=4)
    assert rep.pi_dims[:4] == [1, 0, 0, 0]
    assert all(rep.pi_flags[:4])
    assert rep.hq_dims == GradedDims({2: 1, 3: 1})
    assert any("s=1" in note for note in rep.notes)


def test_power_cofiber_rejects_bad_input():
    with pytest.raises(ValueError):
        power_cofiber_tables(0, 1)
    with pytest.raises(ValueError):
        power_cofiber_tables(1, 2, T=2)


def test_cofiber_bounds_refuse_a_power_over_the_enumeration_budget(monkeypatch):
    # the largest level power_map builds is Sym^max(W, s) of level T of
    # K(Q, 2r): C(C(6, 2) + 1, 2) = 120 monomials for r = 1, s = 2, T = 6,
    # W = 2
    assert cofiber_bounds(1, 2, W=2) == (6, 2, 2)
    assert cofiber_bounds(1, 3) == (8, 4, 4)  # 31,465 monomials
    with pytest.raises(ValueError, match="83369265 monomials"):
        cofiber_bounds(2, 2, W=4)
    # the one bar diagonal, at (min(N, W // s), W) = (1, 2), has 226
    # tuples at level 6
    monkeypatch.setattr(scalg.symalg, "ENUM_BUDGET", 226)
    assert cofiber_bounds(1, 2, W=2) == (6, 2, 2)
    monkeypatch.setattr(scalg.symalg, "ENUM_BUDGET", 225)
    with pytest.raises(ValueError, match="tuples at level 6 than the budget of 225"):
        cofiber_bounds(1, 2, W=2)
    monkeypatch.setattr(scalg.symalg, "ENUM_BUDGET", 119)
    with pytest.raises(ValueError, match=r"Sym\^2 of level 6 of K\(Q, 2\): 120 monomials"):
        power_cofiber_tables(1, 2, W=2)


@pytest.mark.parametrize("r,s,T,W,N", [
    (1, 2, 6, 2, 2), (1, 2, 6, 3, 3), (1, 1, 4, 3, 1), (1, 2, 6, 2, 0),
    (1, 3, 7, 3, 2), (2, 1, 5, 2, 2), (1, 2, 5, 5, 2),
])
def test_bar_level_sizes_are_counted_as_enumerated(r, s, T, W, N):
    f = power_map(r, s, T, W)
    counted = [_bar_level_size(r, s, N, m, W, math.inf) for m in range(T + 1)]
    assert counted == bar_diagonal(f, N, T, W).level_dims
    # over the cap the count stops
    top = max(counted)
    assert _bar_level_size(r, s, N, counted.index(top), W, top - 1) is None


def test_capped_comb_is_exact_or_provably_over_the_cap():
    comb_upto = scalg.symalg._comb_upto
    for a in range(-1, 25):
        for k in range(-1, a + 2):
            exact = math.comb(a, k) if 0 <= k <= a else 0
            for cap in (0, 1, 5, 100, 10 ** 4, 10 ** 7):
                got = comb_upto(a, k, cap)
                assert got == exact or (got is None and exact > cap), (a, k, cap)
    # the running product passes the cap after a few factors, however large
    # the arguments are
    assert comb_upto(10 ** 12, 10 ** 11, 10 ** 6) is None
    assert comb_upto(10 ** 12, 10 ** 12 - 2, 10 ** 6) is None
    assert comb_upto(10 ** 12, 10 ** 12 - 1, 10 ** 6) == 10 ** 12


def test_lemma_inequality_on_computed_triple():
    # cofibration source -> target -> cofiber: the middle series is bounded
    # by the product of the outer ones, coefficientwise
    rep = power_cofiber_tables(1, 2)
    upto = rep.certified_degree
    theta_B = sphere_series_char0(1, 2, upto)
    theta_A = sphere_series_char0(1, 4, upto)
    theta_C = from_dims(rep.pi_dims[: upto + 1])
    assert leq(theta_B, mul(theta_A, theta_C))


# --------------------------------------------------------------- feasibility

def test_les_feasibility_zero_first_term():
    x = GradedDims({2: 1, 4: 2})
    assert les_feasibility(GradedDims({}), x, x).feasible
    assert not les_feasibility(GradedDims({}), x, GradedDims({2: 1})).feasible


def test_les_feasibility_sphere_cofibration_shapes():
    # S(V, n-1) -> A -> S(W, n) forces the four-term sequence
    # 0 -> H_n A -> W -> V -> H_{n-1} A -> 0
    n = 3
    V = GradedDims({n - 1: 1})
    W = GradedDims({n: 1})
    ok_profiles = [GradedDims({}), GradedDims({n - 1: 1, n: 1})]
    for profile in ok_profiles:
        assert les_feasibility(V, profile, W).feasible, profile
    assert not les_feasibility(V, GradedDims({n: 1}), W).feasible


def test_les_feasibility_lone_class_is_infeasible():
    verdict = les_feasibility(GradedDims({3: 1}), GradedDims({}), GradedDims({}))
    assert not verdict.feasible
    assert verdict.violation is not None


def test_les_feasibility_all_empty():
    assert les_feasibility(GradedDims({}), GradedDims({}), GradedDims({})).feasible
