import json
import math
import random

import pytest

import scalg.simplicial
from scalg.cli import _random_complex
from scalg.exactfield import (
    ColumnEchelon, Mat, QQ, GF2, GF3, homology_dim, pivot_rows,
)
from scalg.simplicial import (
    GradedDims,
    SimplicialError,
    SimplicialVectorSpace,
    ChainComplex,
    constant_object,
    eilenberg_maclane,
    gamma,
    surjections,
    zero_object,
)
from scalg.symalg import sym_power_covering_complex


def random_gamma_object(rng, field, T, max_dim=3):
    dims, diffs = _random_complex(rng, field, T, max_dim)
    return gamma(field, dims, diffs, T), ChainComplex(
        field, dims, [Mat.zero(field, 0, dims[0])] + diffs[1:]
    )


# ------------------------------------------------------------- surjections

def test_surjection_count_is_binomial():
    for m in range(7):
        for k in range(m + 1):
            assert len(surjections(m, k)) == math.comb(m, k)


def test_surjection_tuples_are_onto_and_monotone():
    for sigma in surjections(5, 2):
        assert sigma[0] == 0
        assert sigma[-1] == 2
        assert all(b - a in (0, 1) for a, b in zip(sigma, sigma[1:]))


# ---------------------------------------------------------- basic objects

def test_constant_object_chains():
    c = constant_object(QQ, 4)
    assert c.level_dims == [1, 1, 1, 1, 1]
    n = c.normalized_chains()
    assert n.dims == [1, 0, 0, 0, 0]
    h = c.homotopy_dims()
    assert h.to_list(3) == [1, 0, 0, 0]


def test_zero_object_homotopy_vanishes():
    z = zero_object(GF2, 3)
    assert z.homotopy_dims().to_list(2) == [0, 0, 0]


def test_k1_normalized_dims():
    k = eilenberg_maclane(QQ, 1, 1, 4)
    assert k.level_dims == [1, 2, 3, 4, 5] or k.level_dims == [0, 1, 2, 3, 4]
    # with V concentrated in degree 1 the level dims are C(m,1)*q = m... plus
    # nothing in degree 0, so the first form is wrong; pin it exactly:
    assert k.level_dims == [0, 1, 2, 3, 4]
    assert k.normalized_chains().dims == [0, 1, 0, 0, 0]


def test_em_level_dims_match_binomials():
    k = eilenberg_maclane(GF2, 1, 1, 4)
    assert k.level_dims == [0, 1, 2, 3, 4]
    k2 = eilenberg_maclane(QQ, 1, 2, 4)
    assert k2.level_dims == [0, 0, 1, 3, 6]
    k3 = eilenberg_maclane(QQ, 2, 3, 5)
    assert k3.level_dims == [2 * math.comb(m, 3) for m in range(6)]


def test_em_requires_t_at_least_n():
    with pytest.raises(ValueError):
        eilenberg_maclane(QQ, 1, 3, 2)


def test_em_homotopy_concentrated():
    for field in (QQ, GF2):
        for q in (1, 2):
            for n in (0, 1, 2):
                k = eilenberg_maclane(field, q, n, n + 3)
                h = k.homotopy_dims()
                assert h.certified_degree == n + 2
                for m in range(n + 3):
                    assert h[m] == (q if m == n else 0)


def test_em_homotopy_three_dimensional_coefficients():
    k = eilenberg_maclane(GF3, 3, 3, 7)
    h = k.homotopy_dims()
    for m in range(7):
        assert h[m] == (3 if m == 3 else 0)


def test_direct_sum_additivity():
    a = eilenberg_maclane(QQ, 1, 1, 4)
    b = eilenberg_maclane(QQ, 1, 3, 4)
    h = a.direct_sum(b).homotopy_dims()
    assert h.to_list(3) == [0, 1, 0, 1]


# --------------------------------------------------------------- identities

def test_constructor_rejects_identity_violation():
    c = constant_object(GF2, 2)
    faces = [list(f) for f in c.faces]
    # zero out d_0 at level 1, which breaks d_0 s_0 = id
    faces[1] = [Mat.zero(GF2, 1, 1), faces[1][1]]
    with pytest.raises(SimplicialError):
        SimplicialVectorSpace(GF2, c.level_dims, faces, c.degens)


def test_identities_reassertable():
    k = eilenberg_maclane(GF3, 2, 2, 4)
    k.check_identities()


# ------------------------------------------------------- chains and homotopy

def test_gamma_recovers_complex_homology():
    rng = random.Random(42)
    for field in (QQ, GF2, GF3):
        for _ in range(6):
            T = rng.randint(1, 4)
            v, cx = random_gamma_object(rng, field, T)
            hv = v.homotopy_dims()
            hc = cx.homology_dims()
            for m in range(T + 1):
                assert hv[m] == hc[m], (field, m, hv.data, hc.data)


def test_homology_dims_ranks_each_differential_once(monkeypatch):
    rng = random.Random(11)
    calls = []

    def counting_pivot_rows(M, drop=()):
        calls.append(M)
        return pivot_rows(M, drop=drop)

    monkeypatch.setattr(scalg.simplicial, "pivot_rows", counting_pivot_rows)
    for field in (QQ, GF2, GF3):
        for _ in range(5):
            T = rng.randint(1, 4)
            dims, diffs = _random_complex(rng, field, T)
            cx = ChainComplex(field, dims, [Mat.zero(field, 0, dims[0])] + diffs[1:])
            calls.clear()
            h = cx.homology_dims()
            assert len(calls) == T
            for m in range(T + 1):
                d_in = cx.diffs[m + 1] if m < T else Mat.zero(field, dims[m], 0)
                assert h[m] == homology_dim(d_in, cx.differential(m))


def echelon_rank(M):
    """Rank from an untracked ColumnEchelon fed the columns in their order."""
    ech = ColumnEchelon(M.field, M.nrows)
    for col in M.cols:
        ech.insert(col)
    return ech.rank


def test_homology_dims_matches_ranks_of_whole_differentials():
    # homology_dims ranks d_m without the columns at the pivot rows of
    # d_{m+1}; the oracle ranks every differential whole, in column order
    complexes = []
    for field in (QQ, GF2, GF3):
        for q in (1, 2):
            for d in (3, 4):
                complexes.append(sym_power_covering_complex(field, q, 2, d, 6)[0])
        rng = random.Random(29)
        for _ in range(20):
            T = rng.randint(1, 5)
            dims, diffs = _random_complex(rng, field, T)
            complexes.append(
                ChainComplex(field, dims, [Mat.zero(field, 0, dims[0])] + diffs[1:]))
    for cx in complexes:
        ranks = [0] + [echelon_rank(d) for d in cx.diffs[1:]] + [0]
        h = cx.homology_dims()
        for m in range(cx.top + 1):
            assert h[m] == cx.dims[m] - ranks[m] - ranks[m + 1]


def test_normalized_equals_unnormalized_on_gamma_objects():
    rng = random.Random(5)
    for _ in range(8):
        field = rng.choice([QQ, GF2, GF3])
        T = rng.randint(1, 4)
        v, _ = random_gamma_object(rng, field, T)
        hn = v.normalized_chains().homology_dims()
        hu = v.unnormalized_chains().homology_dims()
        for m in range(T):  # certified range only
            assert hn[m] == hu[m]


def test_boundary_is_the_alternating_sum_of_faces():
    rng = random.Random(9)
    for field in (QQ, GF2, GF3):
        v, _ = random_gamma_object(rng, field, 3)
        for m in range(1, v.T + 1):
            total = Mat.zero(field, v.level_dims[m - 1], v.level_dims[m])
            for i, face in enumerate(v.faces[m]):
                total = total + face.scale((-1) ** i)
            assert v.boundary(m) == total


def test_unnormalized_k2():
    k = eilenberg_maclane(QQ, 1, 2, 5)
    h = k.unnormalized_chains().homology_dims()
    assert [h[m] for m in range(5)] == [0, 0, 1, 0, 0]


def test_acyclic_summand_does_not_change_homotopy():
    field = GF2
    T = 4
    v = eilenberg_maclane(field, 1, 2, T)
    # contractible summand: identity complex in degrees 3, 2
    acyclic = gamma(
        field,
        [0, 0, 1, 1],
        [None, Mat.zero(field, 0, 0), Mat.zero(field, 0, 1), Mat.identity(field, 1)],
        T,
    )
    assert acyclic.homotopy_dims().to_list(3) == [0, 0, 0, 0]
    w = v.direct_sum(acyclic)
    hv = v.homotopy_dims()
    hw = w.homotopy_dims()
    for m in range(T):
        assert hv[m] == hw[m]


# ------------------------------------------------------------------- tensor

def test_tensor_level_dims_multiply():
    a = eilenberg_maclane(QQ, 1, 1, 3)
    b = eilenberg_maclane(QQ, 1, 2, 3)
    t = a.tensor(b)
    assert t.level_dims == [x * y for x, y in zip(a.level_dims, b.level_dims)]


def test_tensor_with_unit_is_identity_on_homotopy():
    v = eilenberg_maclane(GF2, 2, 1, 3)
    u = constant_object(GF2, 3)
    h1 = v.tensor(u).homotopy_dims()
    h2 = v.homotopy_dims()
    for m in range(3):
        assert h1[m] == h2[m]


def test_tensor_k1_k1_is_k2_in_homotopy():
    for field in (QQ, GF2):
        a = eilenberg_maclane(field, 1, 1, 4)
        t = a.tensor(a)
        h = t.homotopy_dims()
        assert h.certified_degree == 3
        assert h.to_list(3) == [0, 0, 1, 0]


def test_tensor_kunneth_on_random_objects():
    rng = random.Random(17)
    for _ in range(5):
        field = rng.choice([QQ, GF2])
        T = rng.randint(2, 3)
        a, _ = random_gamma_object(rng, field, T, max_dim=2)
        b, _ = random_gamma_object(rng, field, T, max_dim=2)
        got = a.tensor(b).homotopy_dims()
        expect = GradedDims(a.homotopy_dims().certified().data).convolve(
            GradedDims(b.homotopy_dims().certified().data)
        )
        for m in range(T):
            assert got[m] == expect[m], (field, T, m)


# -------------------------------------------------------------- serialization

def test_json_roundtrip():
    k = eilenberg_maclane(QQ, 1, 2, 4)
    data = k.to_json_dict()
    text = json.dumps(data, sort_keys=True)
    back = SimplicialVectorSpace.from_json_dict(json.loads(text))
    assert back.level_dims == k.level_dims
    for m in range(1, 5):
        for i in range(m + 1):
            assert back.faces[m][i] == k.faces[m][i]
    h = back.homotopy_dims()
    assert h.to_list(3) == [0, 0, 1, 0]


def test_json_rejects_bad_shapes():
    k = eilenberg_maclane(GF2, 1, 1, 2)
    data = k.to_json_dict()
    data["level_dims"] = [9] * 3
    with pytest.raises(SimplicialError):
        SimplicialVectorSpace.from_json_dict(data)
