import ast
import copy
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import scalg.barcof
import scalg.simplicial
from scalg.cli import _random_complex, _random_matrix, main
from scalg.exactfield import (
    ColumnEchelon, FieldError, FieldSpec, Mat, QQ, GF2, GF3, axpy, kernel_basis,
    pivot_rows, rank,
)
from scalg.simplicial import (
    GradedDims,
    NormalizedChains,
    SimplicialError,
    SimplicialVectorSpace,
    ChainComplex,
    constant_object,
    eilenberg_maclane,
    gamma,
    surjections,
    zero_object,
)
from scalg.barcof import bar_diagonal, power_map
from scalg.symalg import (
    induced_homology_matrices, sym_power_covering_complex, symmetric_power,
)
from mat_helpers import is_zero, scale


def random_complex(rng, field, T, max_dim=3):
    """A random complex with degree dimensions up to max_dim, drawn as
    cli._random_complex draws its complexes (whose max_dim is 2)."""
    dims = [rng.randint(0, max_dim) for _ in range(T + 1)]
    diffs = [None]
    prev_kernel = None
    for m in range(1, T + 1):
        if m == 1:
            d = _random_matrix(rng, field, dims[0], dims[1])
        else:
            d = prev_kernel @ _random_matrix(rng, field, prev_kernel.ncols, dims[m])
        diffs.append(d)
        if m < T:
            prev_kernel = kernel_basis(d)
    return dims, diffs


def test_random_complex_at_max_dim_2_is_the_property_test_stream():
    a, b = random.Random(5), random.Random(5)
    for case in range(30):
        field, T = (QQ, GF2, GF3)[case % 3], 1 + case % 4
        assert random_complex(a, field, T, 2) == _random_complex(b, field, T)


def random_gamma_object(rng, field, T, max_dim=3):
    dims, diffs = random_complex(rng, field, T, max_dim)
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


def test_operator_rule_builds_the_same_object_and_is_checked():
    k = eilenberg_maclane(GF3, 1, 2, 4)
    back = SimplicialVectorSpace.from_operators(GF3, k.level_dims, k.operator)
    assert back.faces == k.faces and back.degens == k.degens

    def broken(m, i, to):
        # zero d_0 out of level 3, which breaks d_0 s_0 = id on level 2
        if (m, i, to) == (3, 0, 2):
            return Mat.zero(GF3, k.level_dims[2], k.level_dims[3])
        return k.operator(m, i, to)

    with pytest.raises(SimplicialError, match="identity fails"):
        SimplicialVectorSpace.from_operators(GF3, k.level_dims, broken)


def test_identities_reassertable():
    k = eilenberg_maclane(GF3, 2, 2, 4)
    k.check_identities()


def test_chain_complex_rejects_d_after_d_through_a_unit_column():
    # d_2's column is {0: 1}, so d_1 d_2 is read off d_1's column 0
    one = Mat.identity(QQ, 1)
    with pytest.raises(SimplicialError, match="^d o d != 0 at level 2$"):
        ChainComplex(QQ, [1, 1, 1], [None, one, one])


def test_chain_complex_rejects_d_after_d_through_a_longer_column():
    # d_2's column is {0: 1, 1: 1}, so d_1 d_2 is computed: 2, zero mod 2
    for field in (QQ, GF3, GF2):
        d1, d2 = Mat.from_rows(field, [[1, 1]]), Mat.from_rows(field, [[1], [1]])
        if field is GF2:
            assert ChainComplex(field, [1, 2, 1], [None, d1, d2]).top == 2
        else:
            with pytest.raises(SimplicialError, match="^d o d != 0 at level 2$"):
                ChainComplex(field, [1, 2, 1], [None, d1, d2])


@pytest.mark.parametrize("dims, diffs, message", [
    ([1, 1], [None], "^differential list length mismatch$"),
    ([1, 2], [None, Mat.zero(GF3, 2, 1)], "^differential shape at level 1$"),
    ([1, 1, 1], [None, Mat.identity(GF3, 1), Mat.identity(GF3, 1)],
     "^d o d != 0 at level 2$"),
])
def test_gamma_rejects_a_complex_that_is_not_one(dims, diffs, message):
    with pytest.raises(SimplicialError, match=message):
        gamma(GF3, dims, diffs, 3)


def test_only_the_property_test_generator_multiplies_matrices():
    # every check compares composites column by column (_composite); a
    # product matrix is built only where cli draws random complexes
    class Sites(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.found = [module], []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_MatMult(self, node):
            self.found.append(".".join(self.scope))

    found = []
    for path in sorted(Path(scalg.simplicial.__file__).parent.glob("*.py")):
        sites = Sites(path.stem)
        sites.visit(ast.parse(path.read_text()))
        found += sites.found
    assert found == ["cli._random_complex"]


# ------------------------------------------- fast paths against the old ones

def coface(m, i):
    """delta^i: [m-1] -> [m] skipping i, as a value tuple."""
    return tuple(x if x < i else x + 1 for x in range(m))


def codegeneracy(m, i):
    """eta^i: [m+1] -> [m] repeating i, as a value tuple."""
    return tuple(x if x <= i else x - 1 for x in range(m + 2))


def mask_of(vals):
    """The jump mask of a monotone value tuple with steps 0 or 1."""
    return sum((b - a) << j for j, (a, b) in enumerate(zip(vals, vals[1:])))


def test_the_mask_rule_matches_tuple_composition():
    # every sigma: [m] ->> [k] with m <= 10 and every d_i and s_i out of
    # level m: compose the value tuples and factor the composite by its
    # image, [k] for the identity, [k - 1] for the differential
    cases = 0
    for m in range(11):
        for k in range(m + 1):
            for sigma, mask in zip(surjections(m, k),
                                   scalg.simplicial._jump_masks(m, k)[0]):
                assert mask_of(sigma) == mask
                for i, to in [(i, m - 1) for i in range(m + 1) if m] + \
                             [(i, m + 1) for i in range(m + 1)]:
                    phi = coface(m, i) if to < m else codegeneracy(m, i)
                    comp = tuple(sigma[phi[x]] for x in range(to + 1))
                    image = set(comp)
                    expect = ("id", mask_of(comp)) if len(image) == k + 1 else \
                        ("d", mask_of(comp)) if image == set(range(k)) else None
                    assert scalg.simplicial._act(mask, m, i, to) == expect, \
                        (sigma, i, to)
                    cases += 1
    assert cases == 40_961


def per_basis_gamma(field, dims, diffs, T):
    """(bases, operator) of gamma computed basis vector by basis vector:
    sigma o phi and its image set for every (sigma, k, e), looked up by
    label.  The oracle for gamma's rule on jump masks and block offsets."""
    kmax = len(dims) - 1
    bases = [[(sigma, k, e) for k in range(min(m, kmax) + 1)
              for sigma in surjections(m, k) for e in range(dims[k])]
             for m in range(T + 1)]
    index = [{b: i for i, b in enumerate(basis)} for basis in bases]

    def operator(m, i, to):
        phi = coface(m, i) if to < m else codegeneracy(m, i)
        cols = []
        for sigma, k, e in bases[m]:
            comp = tuple(sigma[phi[j]] for j in range(to + 1))
            image = set(comp)
            col = {}
            if len(image) == k + 1:
                col[index[to][(comp, k, e)]] = 1
            elif image == set(range(k)):
                for e2, v in diffs[k].cols[e].items():
                    col[index[to][(comp, k - 1, e2)]] = v
            cols.append(col)
        return Mat(field, len(bases[to]), len(bases[m]), cols)

    return bases, operator


def test_gamma_equals_the_per_basis_construction():
    rng = random.Random(18)
    for case in range(60):
        field = (QQ, GF2, GF3)[case % 3]
        T = 1 + case % 5
        dims, diffs = random_complex(rng, field, T)
        while all(is_zero(d) for d in diffs[1:]):
            dims, diffs = random_complex(rng, field, T)
        v = gamma(field, dims, diffs, T)
        bases, operator = per_basis_gamma(field, dims, diffs, T)
        assert v.level_dims == [len(b) for b in bases]
        assert v.basis_labels == bases
        for m, i, to in scalg.simplicial._operator_slots(T):
            assert v.operator(m, i, to) == operator(m, i, to), (case, m, i, to)


def gamma_level_listing_every_degree(dims, m):
    """_gamma_level as it was before degrees with dims[k] = 0 were skipped:
    the surjections [m] ->> [k] listed for every k <= m."""
    basis, starts = [], []
    for k in range(min(m, len(dims) - 1) + 1):
        starts.append(len(basis))
        for sigma in surjections(m, k):
            for e in range(dims[k]):
                basis.append((sigma, k, e))
    return tuple(basis), tuple(starts)


def test_gamma_levels_skip_empty_degrees_and_keep_their_starts():
    # zeros are drawn often, as in K(V, n), whose dims are [0] * n + [q]
    rng = random.Random(32)
    for case in range(200):
        dims = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(rng.randint(1, 7)))
        m = rng.randint(0, 9)
        assert (scalg.simplicial._gamma_level(dims, m)
                == gamma_level_listing_every_degree(dims, m)), (dims, m)
    # one basis vector at level 25: C(25, k) surjections for each k < 25
    # were listed before
    basis, starts = scalg.simplicial._gamma_level((0,) * 25 + (1,), 25)
    assert basis == ((tuple(range(26)), 25, 0),) and starts == (0,) * 26


def test_a_second_gamma_of_the_same_shape_only_reads_the_cache():
    dims = [1, 2, 1, 3]
    diffs = [None, Mat.zero(GF3, 1, 2), Mat.from_rows(GF3, [[1], [2]]),
             Mat.zero(GF3, 1, 3)]
    gamma(GF3, dims, diffs, 6)
    # the jump masks depend on (m, k) only, so a complex of other
    # dimensions reads them from the cache
    before = scalg.simplicial._jump_masks.cache_info()
    gamma(QQ, [2, 1, 1, 1], [None] + [Mat.zero(QQ, a, b) for a, b in
                                      [(2, 1), (1, 1), (1, 1)]], 6)
    after = scalg.simplicial._jump_masks.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    # the plans depend on the dimensions, not on the field or the complex
    before = scalg.simplicial._gamma_plan.cache_info()
    gamma(QQ, dims, [None] + [Mat.zero(QQ, dims[k - 1], dims[k])
                              for k in range(1, 4)], 6)
    after = scalg.simplicial._gamma_plan.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def plan_misses():
    return (scalg.simplicial._gamma_plan.cache_info().misses,
            scalg.simplicial._gamma_level.cache_info().misses)


def assert_per_basis(v, field, dims, diffs, T):
    bases, operator = per_basis_gamma(field, dims, diffs, T)
    assert v.basis_labels == bases
    for m, i, to in scalg.simplicial._operator_slots(T):
        assert v.operator(m, i, to) == operator(m, i, to), (m, i, to)


@pytest.mark.parametrize("field", [QQ, GF3], ids=["Q", "F3"])
def test_complexes_of_one_shape_share_the_plan_and_no_column(field,
                                                            assert_shared_columns):
    # two complexes with dims [1, 2, 1] and d_1 d_2 = 0
    dims = [1, 2, 1]
    one = [None, Mat.from_rows(field, [[1, 0]]), Mat.from_rows(field, [[0], [2]])]
    two = [None, Mat.from_rows(field, [[0, 1]]), Mat.from_rows(field, [[1], [0]])]
    v = gamma(field, dims, one, 5)
    before = plan_misses()
    w = gamma(field, dims, two, 5)
    assert plan_misses() == before
    assert_per_basis(v, field, dims, one, 5)
    assert_per_basis(w, field, dims, two, 5)
    assert any(v.operator(*slot) != w.operator(*slot)
               for slot in scalg.simplicial._operator_slots(5))
    # every unit and empty column is the shared one; every other column,
    # and every list of labels, is the object's own
    assert_shared_columns(*[x.operator(*slot) for x in (v, w)
                            for slot in scalg.simplicial._operator_slots(5)])
    assert all(a is not b for a, b in zip(v.basis_labels, w.basis_labels))


def test_one_shape_at_two_truncations():
    dims = [2, 1, 1]
    diffs = [None, Mat.from_rows(GF3, [[1], [2]]), Mat.zero(GF3, 1, 1)]
    high = gamma(GF3, dims, diffs, 5)
    before = plan_misses()
    low = gamma(GF3, dims, diffs, 3)
    # the levels and plans of T = 3 are among those of T = 5
    assert plan_misses() == before
    assert_per_basis(high, GF3, dims, diffs, 5)
    assert_per_basis(low, GF3, dims, diffs, 3)
    assert low.basis_labels == high.basis_labels[:4]


def test_property_test_output_does_not_depend_on_cache_state():
    argv = ["property-test", "--seed", "5", "--cases", "200"]
    warm = []
    for _ in range(2):
        out = io.StringIO()
        assert main(argv, stdout=out) == 0
        warm.append(out.getvalue())
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cold = subprocess.run([sys.executable, "-m", "scalg.cli"] + argv, env=env,
                          cwd=root, capture_output=True, text=True, timeout=120)
    assert (cold.returncode, cold.stderr) == (0, "")
    assert warm == [cold.stdout, cold.stdout]


def matmul_check_identities(obj):
    """Every simplicial identity checked by multiplying out both sides,
    with the messages of check_identities: the oracle for its column by
    column comparison."""
    d, s, T = obj.faces, obj.degens, obj.T
    for m in range(2, T + 1):
        for j in range(m + 1):
            for i in range(j):
                if d[m - 1][i] @ d[m][j] != d[m - 1][j - 1] @ d[m][i]:
                    raise SimplicialError(
                        "d_%d d_%d identity fails at level %d" % (i, j, m))
    for m in range(T - 1):
        for j in range(m + 1):
            for i in range(j + 1):
                if s[m + 1][i] @ s[m][j] != s[m + 1][j + 1] @ s[m][i]:
                    raise SimplicialError(
                        "s_%d s_%d identity fails at level %d" % (i, j, m))
    for m in range(T):
        ident = Mat.identity(obj.field, obj.level_dims[m])
        for j in range(m + 1):
            for i in range(m + 2):
                lhs = d[m + 1][i] @ s[m][j]
                if i < j:
                    rhs = s[m - 1][j - 1] @ d[m][i]
                elif i in (j, j + 1):
                    rhs = ident
                else:
                    rhs = s[m - 1][j] @ d[m][i - 1]
                if lhs != rhs:
                    raise SimplicialError(
                        "d_%d s_%d identity fails at level %d" % (i, j, m))


def identity_verdict(check, obj):
    try:
        check(obj)
    except SimplicialError as exc:
        return str(exc)
    return None


def random_entry(rng, field):
    """A nonzero field element, 1 and (over Q and F_3) 2 among them; over
    Q also 1/2, which is not a unit entry."""
    if field.characteristic == 0:
        return rng.choice([1, 1, 2, -1, Fraction(1, 2), Fraction(-2, 3)])
    return rng.randrange(1, field.characteristic)


def corrupt(rng, obj, how=None):
    """obj with one entry of one operator changed, added or removed, with
    how="empty" one nonempty column emptied, or with how="scale" one unit
    column {k: 1} scaled to {k: 2} or {k: -1} (None over F_2), built
    without any identity check."""
    m, i, to = rng.choice(list(scalg.simplicial._operator_slots(obj.T)))
    target = obj.operator(m, i, to)
    if not target.ncols or not target.nrows:
        return None
    cols = [dict(col) for col in target.cols]
    if how == "empty":
        full = [col for col in cols if col]
        if not full:
            return None
        rng.choice(full).clear()
    elif how == "scale":
        units = [col for col in cols if list(col.values()) == [1]]
        p = obj.field.characteristic
        if not units or p == 2:
            return None
        col = rng.choice(units)
        (k, _), = col.items()
        c = rng.choice([2, -1])
        col[k] = c % p if p else c
    else:
        col = cols[rng.randrange(len(cols))]
        how = rng.choice(["change", "add", "remove"])
        if how == "remove" and col:
            del col[rng.choice(sorted(col))]
        elif how == "change" and col:
            col[rng.choice(sorted(col))] = random_entry(rng, obj.field)
        else:
            col[rng.randrange(target.nrows)] = random_entry(rng, obj.field)
    bad = Mat(obj.field, target.nrows, target.ncols, cols)

    def operator(m2, i2, to2):
        return bad if (m2, i2, to2) == (m, i, to) else obj.operator(m2, i2, to2)

    return SimplicialVectorSpace._functor_image(
        obj.field, obj.level_dims, operator, None)


def test_column_check_agrees_with_the_product_check_on_corrupted_objects():
    rng = random.Random(18)
    verdicts, emptied_verdicts, scaled_verdicts = set(), set(), set()
    for case in range(240):
        field = (QQ, GF2, GF3)[case % 3]
        if case % 4:
            obj, _ = random_gamma_object(rng, field, rng.randint(1, 4))
        else:
            T = rng.randint(1, 3)
            obj = random_gamma_object(rng, field, T, 2)[0].tensor(
                random_gamma_object(rng, field, T, 2)[0])
        # an entry changed, added or removed; then, drawn apart so that the
        # first stream stays as it was, one nonempty column emptied, and
        # one unit column scaled, so that its row map entry is None on one
        # side and the check multiplies that column out
        emptied = corrupt(random.Random(case), obj, "empty")
        scaled = corrupt(random.Random("scale-%d" % case), obj, "scale")
        for bad, seen in [(corrupt(rng, obj), verdicts),
                          (emptied, emptied_verdicts),
                          (scaled, scaled_verdicts)]:
            if bad is None:
                continue
            verdict = identity_verdict(SimplicialVectorSpace.check_identities, bad)
            assert verdict == identity_verdict(matmul_check_identities, bad), case
            seen.add(verdict)
    # both outcomes, and failures of each kind of identity, were seen
    assert None in verdicts
    assert {v[0] + v[4] for v in verdicts if v} == {"dd", "ss", "ds"}
    assert {v[0] + v[4] for v in emptied_verdicts if v} == {"dd", "ss", "ds"}
    assert {v[0] + v[4] for v in scaled_verdicts if v} == {"dd", "ss", "ds"}


def unit_rows_from_cols(mat):
    """Mat.unit_rows recomputed from the columns: the row of {k: 1}, -1
    for an empty column, None for any other."""
    out = []
    for col in mat.cols:
        if not col:
            out.append(-1)
        elif list(col.values()) == [1]:
            out.append(next(iter(col)))
        else:
            out.append(None)
    return out


def test_handed_row_maps_agree_with_the_columns():
    # gamma, symmetric_power (by lookup) and Mat.kron hand their row maps
    # to the constructor; each must be the one the columns give
    rng = random.Random(22)
    objects = []
    for field in (QQ, GF2, GF3):
        for _ in range(8):
            objects.append(random_gamma_object(rng, field, rng.randint(1, 4))[0])
        T = rng.randint(1, 3)
        objects.append(random_gamma_object(rng, field, T, 2)[0].tensor(
            random_gamma_object(rng, field, T, 2)[0]))
        k = eilenberg_maclane(field, 2, 2, 5)
        objects += [eilenberg_maclane(field, 1, 3, 5), k,
                    symmetric_power(k, 2), symmetric_power(k, 3)]
    kinds = set()
    for obj in objects:
        for m, i, to in scalg.simplicial._operator_slots(obj.T):
            op = obj.operator(m, i, to)
            expected = unit_rows_from_cols(op)
            assert op.unit_rows() == expected, (obj, m, i, to)
            kinds.update(-1 if r == -1 else type(r) for r in expected)
    # unit, empty and other columns all occur
    assert kinds == {-1, int, type(None)}


@pytest.mark.parametrize("field,entry", [
    (GF3, 2), (QQ, 2), (QQ, Fraction(1, 2)), (QQ, -1),
], ids=["F3-2", "Q-2", "Q-half", "Q-minus-1"])
def test_a_scaled_unit_column_is_multiplied_not_looked_up(field, entry):
    k = eilenberg_maclane(field, 2, 1, 3)
    s = k.operator(1, 0, 2)
    cols = [dict(col) for col in s.cols]
    (row, _), = cols[1].items()
    cols[1] = {row: entry}
    scaled = Mat(field, s.nrows, s.ncols, cols)
    d = k.operator(2, 1, 1)
    for r in range(scaled.ncols):
        assert scalg.simplicial._composite(d, scaled, r) == (d @ scaled).cols[r]
    # a lookup would have read d's column row unscaled
    assert d.cols[row]
    assert scalg.simplicial._composite(d, scaled, 1) != d.cols[row]
    bad = SimplicialVectorSpace._functor_image(
        field, k.level_dims,
        lambda m, i, to: scaled if (m, i, to) == (1, 0, 2) else k.operator(m, i, to),
        None)
    verdict = identity_verdict(SimplicialVectorSpace.check_identities, bad)
    assert verdict is not None
    assert verdict == identity_verdict(matmul_check_identities, bad)


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


def assert_reps_coordinatize(cx, rng):
    """In every degree, coords reads each representative as its own unit
    vector, a boundary as zero and a random combination of both as its
    coefficients on the representatives; and the identity chain map
    induces the identity, every row index inside its matrix."""
    F = cx.field
    for m in range(cx.top + 1):
        reps, coords = cx.homology_reps(m)
        bounds = cx.diffs[m + 1].cols if m < cx.top else []
        for j, col in enumerate(reps.cols):
            assert coords(dict(col)) == {j: 1}, (m, j)
        for col in bounds:
            assert coords(dict(col)) == {}, m
        coeffs = {j: F.element(rng.randint(1, 4)) for j in range(reps.ncols)
                  if rng.random() < 0.7}
        vec = {}
        for j, c in coeffs.items():
            axpy(vec, c, reps.cols[j], F.characteristic)
        for col in bounds:
            axpy(vec, F.element(rng.randint(0, 4)), col, F.characteristic)
        assert coords(vec) == {j: c for j, c in coeffs.items() if c}, m
    induced = induced_homology_matrices(
        cx, cx, [Mat.identity(F, dim) for dim in cx.dims], cx.top)
    for m, mat in induced.items():
        assert mat == Mat.identity(F, mat.ncols), m
        assert all(0 <= r < mat.nrows for col in mat.cols for r in col), m


def test_homology_reps_coordinates_index_the_representatives():
    # d_1 = e_0: the kernel cycle e_0 of degree 0 is a boundary and is
    # dropped, so e_1 is the one representative, with coordinate 0
    cx = ChainComplex(QQ, [2, 1], [None, Mat(QQ, 2, 1, [{0: 1}])])
    reps, coords = cx.homology_reps(0)
    assert reps.cols == [{1: 1}]
    assert coords({1: 1}) == {0: 1}
    assert coords({0: 1}) == {}
    ident = [Mat.identity(QQ, 2), Mat.identity(QQ, 1)]
    assert induced_homology_matrices(cx, cx, ident, 0)[0] == Mat.identity(QQ, 1)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_homology_reps_coordinatize_random_complexes(field):
    rng = random.Random(26)
    for _ in range(80):
        T = rng.randint(1, 5)
        cx = ChainComplex(field, *_random_complex(rng, field, T))
        assert_reps_coordinatize(cx, rng)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_homology_reps_coordinatize_a_conjugated_object(field, conjugated_gamma):
    # the unnormalized chains have many degenerate cycles that are
    # boundaries, inserted in between the representatives
    rng = random.Random(27)
    for obj in conjugated_gamma(field, 4):
        assert_reps_coordinatize(obj.normalized_chains(), rng)
        assert_reps_coordinatize(obj.unnormalized_chains(), rng)


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
            dims, diffs = random_complex(rng, field, T)
            cx = ChainComplex(field, dims, [Mat.zero(field, 0, dims[0])] + diffs[1:])
            calls.clear()
            h = cx.homology_dims()
            assert len(calls) == T
            for m in range(T + 1):
                d_in = cx.diffs[m + 1] if m < T else Mat.zero(field, dims[m], 0)
                assert h[m] == dims[m] - rank(cx.differential(m)) - rank(d_in)


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
        for d in (3, 4, 5, 6):  # 75 to 18,462 columns
            complexes.append(sym_power_covering_complex(field, 2, d, 6)[0])
        rng = random.Random(29)
        for _ in range(20):
            T = rng.randint(1, 5)
            dims, diffs = random_complex(rng, field, T)
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


def assert_quotient_paths(obj, ncx):
    """Each level of ncx went through a ColumnEchelon exactly when some
    degeneracy image into it has other than one entry; at least one did."""
    echelon = [m > 0 and any(len(col) != 1 for s in obj.degens[m - 1]
                             for col in s.cols)
               for m in range(obj.T + 1)]
    assert [ech is not None for ech in ncx.echelons] == echelon
    assert any(echelon)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_normalized_chains_of_a_conjugated_object(field, conjugated_gamma):
    # the degeneracy images of the conjugated object have many entries,
    # some on other pivot rows, so the quotient has real elimination to do
    T = 4
    v, w = conjugated_gamma(field, T)
    assert any(len(col) > 1 for m in range(T) for s in w.degens[m]
               for col in s.cols)

    ncx = w.normalized_chains()
    assert_quotient_paths(w, ncx)
    for m in range(1, T + 1):
        # the differential on normalized columns is the whole-level one
        # pushed through the quotient
        bd = w.boundary(m)
        assert ncx.diffs[m] == Mat(field, ncx.dims[m - 1], ncx.dims[m], [
            ncx.project(m - 1, bd.apply(ncx.include(m, {k: 1})))
            for k in range(ncx.dims[m])])
    hn = ncx.homology_dims()
    assert hn == v.homotopy_dims()
    assert hn.to_list(T) == [1, 1, 1, 0, 0]
    hu = w.unnormalized_chains().homology_dims()
    assert [hn[m] for m in range(T)] == [hu[m] for m in range(T)]
    for m in range(1, T + 1):
        for s in w.degens[m - 1]:
            assert all(ncx.project(m, col) == {} for col in s.cols)
    for m in range(T + 1):
        for k in range(ncx.dims[m]):
            assert ncx.project(m, ncx.include(m, {k: 1})) == {k: 1}

    text = json.dumps(w.to_json_dict(), sort_keys=True)
    assert ("/" in text) == (field == QQ)  # "a/b" entries over Q only
    back = SimplicialVectorSpace.from_json_dict(json.loads(text))
    assert back.faces == w.faces and back.degens == w.degens


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_mixed_levels_of_a_direct_sum_go_through_the_echelon(field, conjugated_gamma):
    # a gamma object (unit degeneracy images) plus its conjugate (images
    # with many entries): every level above 1 mixes both kinds of column
    T = 4
    v, w = conjugated_gamma(field, T)
    mixed = v.direct_sum(w)
    ncx = mixed.normalized_chains()
    assert_quotient_paths(mixed, ncx)
    for m in range(2, T + 1):
        columns = [col for s in mixed.degens[m - 1] for col in s.cols]
        assert any(len(col) == 1 for col in columns)
        assert any(len(col) > 1 for col in columns)
    hn = ncx.homology_dims()
    hu = mixed.unnormalized_chains().homology_dims()
    assert [hn[m] for m in range(T)] == [hu[m] for m in range(T)]
    assert hn.to_list(T - 1) == [2, 2, 2, 0]
    for m in range(T + 1):
        for s in mixed.degens[m - 1] if m else ():
            assert all(ncx.project(m, col) == {} for col in s.cols)
        for j in range(ncx.dims[m]):
            assert ncx.project(m, ncx.include(m, {j: 1})) == {j: 1}


@pytest.mark.parametrize("field,T,d", [
    (QQ, 3, 2), (GF2, 4, 2), (GF3, 4, 2), (GF2, 3, 3), (GF3, 3, 3),
], ids=["Q-d2", "F2-d2", "F3-d2", "F2-d3", "F3-d3"])
def test_symmetric_powers_of_a_conjugated_object_satisfy_the_identities(
        field, T, d, conjugated_gamma):
    # symmetric_power checks no simplicial identity: they follow from the
    # base's.  On the conjugated object every structure map of the power
    # multiplies images with many entries, so _mono_product sums real
    # cross terms, and the full check is the oracle.  Over Q the check
    # multiplies dense matrices of fractions (about a minute for T = 4,
    # d = 2), so Q stops at T = 3
    v, w = conjugated_gamma(field, T)
    power = symmetric_power(w, d)
    assert any(len(col) > d for m in range(1, T + 1) for f in power.faces[m]
               for col in f.cols)
    power.check_identities()
    assert power.homotopy_dims() == symmetric_power(v, d).homotopy_dims()


def test_normalized_chains_evaluate_the_boundary_on_normalized_columns_only(
        monkeypatch):
    v, _ = random_gamma_object(random.Random(4), GF3, 4)
    evaluated = []
    column = SimplicialVectorSpace._boundary_column

    def record(self, m, r):
        evaluated.append((m, r))
        return column(self, m, r)

    def refuse(self, m):
        raise AssertionError("whole-level boundary built")

    monkeypatch.setattr(SimplicialVectorSpace, "_boundary_column", record)
    monkeypatch.setattr(SimplicialVectorSpace, "boundary", refuse)
    ncx = v.normalized_chains()
    assert evaluated == [(m, r) for m in range(1, v.T + 1) for r in ncx.bases[m]]
    assert sum(ncx.dims[1:]) < sum(v.level_dims[1:])  # some columns skipped


class EchelonQuotient:
    """The oracle quotient of a whole object: every level's degeneracy
    images inserted into one ColumnEchelon, whose non-pivot rows are the
    basis and whose normal_form projects, whatever the columns look like,
    and the whole-level boundary of each basis row projected."""

    def __init__(self, obj):
        self.echelons = []
        for m, dim in enumerate(obj.level_dims):
            ech = ColumnEchelon(obj.field, dim)
            for s in obj.degens[m - 1] if m else ():
                for col in s.cols:
                    ech.insert(col)
            self.echelons.append(ech)
        self.bases = [[r for r in range(ech.nrows) if r not in ech.pivots]
                      for ech in self.echelons]
        self._positions = [{r: k for k, r in enumerate(b)} for b in self.bases]
        dims = [len(b) for b in self.bases]
        self.diffs = [Mat.zero(obj.field, 0, dims[0])] + [
            Mat(obj.field, dims[m - 1], dims[m],
                [self.project(m - 1, obj.boundary(m).cols[r]) for r in self.bases[m]])
            for m in range(1, len(dims))]

    def project(self, m, vec):
        position = self._positions[m]
        return {position[r]: v
                for r, v in self.echelons[m].normal_form(vec).items()}

    def include(self, m, vec):
        return {self.bases[m][k]: v for k, v in vec.items()}


FIELDS = {"Q": QQ, "F2": GF2, "F3": GF3}


def random_sparse(rng, field, dim, size=4):
    """Up to size entries in 0..dim-1; over F_p some are not reduced."""
    p = field.characteristic
    pick = (lambda: rng.choice([-2, -1, 1, 3, Fraction(1, 2)])) if p == 0 \
        else (lambda: rng.randrange(-p, 2 * p))
    return {rng.randrange(dim): pick() for _ in range(size)} if dim else {}


UNIT_OBJECTS = {
    **{"em-" + name: (lambda f=f: eilenberg_maclane(f, 2, 2, 5))
       for name, f in FIELDS.items()},
    **{"sym%d-k2-%s" % (d, name):
       (lambda f=f, d=d: symmetric_power(eilenberg_maclane(f, 1, 2, 6), d))
       for name, f in FIELDS.items() for d in (2, 3)},
}


@pytest.mark.parametrize("case", sorted(UNIT_OBJECTS) + ["bar"])
def test_coordinate_quotient_equals_the_echelon_quotient(case, full_bar):
    # every degeneracy image of these objects is one basis vector, so each
    # level takes the coordinate path; an echelon quotient of the whole
    # object is the oracle.  The bar is bar_diagonal(power_map(1, 2, 6, 3),
    # 3, 6, 3), keyed by tuples, against the whole object built from the
    # tests' rules: keys[m][r] is the key of row r of level m
    if case == "bar":
        f = power_map(1, 2, 6, 3)
        ncx = bar_diagonal(f, 3, 6, 3).normalized_chains()
        full, keys = full_bar(f, 3, 6, 3)
    else:
        full = UNIT_OBJECTS[case]()
        ncx = full.normalized_chains()
        keys = [range(dim) for dim in full.level_dims]
    oracle = EchelonQuotient(full)

    assert all(ech is None for ech in ncx.echelons)
    assert ncx.bases == [[keys[m][r] for r in basis]
                         for m, basis in enumerate(oracle.bases)]
    assert ncx.diffs == oracle.diffs
    rng = random.Random(case)
    for m in range(ncx.top + 1):
        for _ in range(20):
            vec = random_sparse(rng, ncx.field, full.level_dims[m])
            assert (ncx.project(m, {keys[m][r]: v for r, v in vec.items()})
                    == oracle.project(m, vec))
            coords = random_sparse(rng, ncx.field, ncx.dims[m])
            assert ncx.include(m, coords) == {
                keys[m][r]: v for r, v in oracle.include(m, coords).items()}


def test_boundary_is_the_alternating_sum_of_faces():
    rng = random.Random(9)
    for field in (QQ, GF2, GF3):
        v, _ = random_gamma_object(rng, field, 3)
        for m in range(1, v.T + 1):
            total = Mat.zero(field, v.level_dims[m - 1], v.level_dims[m])
            for i, face in enumerate(v.faces[m]):
                total = total + scale(face, (-1) ** i)
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


@pytest.mark.parametrize("name", ["tensor", "direct_sum"])
def test_pairing_rejects_objects_over_different_fields(name):
    a, b = eilenberg_maclane(QQ, 1, 1, 3), eilenberg_maclane(GF2, 1, 1, 3)
    with pytest.raises(FieldError, match="^%s over different fields$"
                       % name.replace("_", " ")):
        getattr(a, name)(b)


@pytest.mark.parametrize("name", ["tensor", "direct_sum"])
def test_pairing_rejects_objects_of_different_truncations(name):
    a, b = eilenberg_maclane(QQ, 1, 1, 3), eilenberg_maclane(QQ, 1, 1, 4)
    with pytest.raises(SimplicialError, match="^%s of different truncations$"
                       % name.replace("_", " ")):
        getattr(a, name)(b)


def test_tensor_kunneth_on_random_objects():
    rng = random.Random(17)
    for _ in range(5):
        field = rng.choice([QQ, GF2])
        T = rng.randint(2, 3)
        a, _ = random_gamma_object(rng, field, T, max_dim=2)
        b, _ = random_gamma_object(rng, field, T, max_dim=2)
        got = a.tensor(b).homotopy_dims()
        expect = GradedDims(a.homotopy_dims().certified().data).convolve(
            GradedDims(b.homotopy_dims().certified().data), upto=T - 1
        )
        for m in range(T):
            assert got[m] == expect[m], (field, T, m)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_tensor_and_direct_sum_pass_the_full_identity_check(field, conjugated_gamma):
    # tensor and direct_sum check shapes only (functor images of Mat.kron
    # and Mat.block_diag); the full check and the product oracle must pass
    # on what they build, from gamma objects and from a conjugated one,
    # whose faces and degeneracies are dense
    rng = random.Random(29)
    pairs = []
    for _ in range(6):
        T = rng.randint(1, 3)
        pairs.append((random_gamma_object(rng, field, T, 2)[0],
                      random_gamma_object(rng, field, T, 2)[0]))
    v, w = conjugated_gamma(field, 3)
    pairs += [(v, w), (w, v), (w, w)]
    for a, b in pairs:
        for obj in (a.tensor(b), a.direct_sum(b)):
            obj.check_identities()
            assert identity_verdict(matmul_check_identities, obj) is None


def test_property_test_checks_no_identity_of_a_tensor_product(monkeypatch):
    # the identities of a tensor product are Mat.kron images of its
    # factors' (test_kron_and_block_diag_keep_composites_and_identities in
    # tests/test_exactfield.py), so property-test must run without
    # checking them; the gamma objects it tensors are still checked
    check = SimplicialVectorSpace.check_identities
    tensor = SimplicialVectorSpace.tensor.__code__
    checked = []

    def guarded(self):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is tensor:
                raise AssertionError("checked the identities of a tensor product")
            frame = frame.f_back
        checked.append(self)
        return check(self)

    monkeypatch.setattr(SimplicialVectorSpace, "check_identities", guarded)
    out = io.StringIO()
    assert main(["property-test", "--seed", "3", "--cases", "300"], stdout=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["failures"] == []
    assert payload["checks"]["kunneth"] == 60
    assert checked


def test_constant_object_is_built_once_per_field_and_truncation():
    for field in (QQ, GF2, GF3):
        c = constant_object(field, 3)
        assert constant_object(field, 3) is c
        assert constant_object(FieldSpec(field.characteristic), 3) is c
        assert constant_object(field, 4) is not c
        assert symmetric_power(eilenberg_maclane(field, 1, 2, 3), 0) is c
    assert constant_object(QQ, 3) is not constant_object(GF2, 3)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_constant_object_equals_gamma_of_the_field_in_degree_0(field):
    # the oracle for the shared identity: gamma's own construction
    for T in range(7):
        c, g = constant_object(field, T), gamma(field, [1], [None], T)
        assert c.level_dims == g.level_dims
        assert c.basis_labels == g.basis_labels
        for m, i, to in scalg.simplicial._operator_slots(T):
            assert c.operator(m, i, to) == g.operator(m, i, to), (T, m, i, to)
            assert c.operator(m, i, to).unit_rows() == [0]


def test_constant_object_is_checked_once_and_looks_up_no_gamma_plan(monkeypatch):
    check = SimplicialVectorSpace.check_identities
    checked = []

    def counted(self):
        checked.append(self)
        return check(self)

    monkeypatch.setattr(SimplicialVectorSpace, "check_identities", counted)
    info = scalg.simplicial._gamma_plan.cache_info()
    for field in (QQ, GF2, GF3):
        for T in range(7):
            # the uncached builder, so that what earlier calls cached does
            # not matter: one full check per build, and the cache hands
            # that build out again unchecked
            built = constant_object.__wrapped__(field, T)
            assert checked == [built], (field, T)
            checked.clear()
    after = scalg.simplicial._gamma_plan.cache_info()
    assert (after.hits, after.misses) == (info.hits, info.misses)
    c = constant_object(GF3, 5)
    checked.clear()
    assert constant_object(GF3, 5) is c and checked == []


def test_normalized_chains_are_computed_once_and_kept(monkeypatch):
    v = eilenberg_maclane(GF3, 1, 2, 4)
    init = NormalizedChains.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NormalizedChains, "__init__", counted)
    chains = v.normalized_chains()
    assert v.normalized_chains() is chains
    assert v.homotopy_dims() == chains.homology_dims()
    assert built == [chains]
    # a pickled or copied object drops the kept chains, which hold
    # closures, and computes its own
    for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        again = back.normalized_chains()
        assert again is not chains
        assert (again.bases, again.diffs) == (chains.bases, chains.diffs)
    assert len(built) == 4


def test_threads_reading_shared_objects_at_once_agree():
    # in each round six threads, released together, read one new object's
    # normalized chains and the constant object of a truncation no other
    # test asks for; a race may build either twice, never a different one
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for T in (17, 18, 19):
            v = eilenberg_maclane(GF3, 1, 2, 6)
            barrier = threading.Barrier(6, timeout=60)
            got = [None] * 6

            def read(t):
                barrier.wait()
                got[t] = (v.normalized_chains(), constant_object(GF2, T))

            threads = [threading.Thread(target=read, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            chains, constant = v.normalized_chains(), constant_object(GF2, T)
            assert any(c is chains for c, _ in got)
            assert any(c is constant for _, c in got)
            for c, const in got:
                assert (c.bases, c.diffs) == (chains.bases, chains.diffs)
                assert (const.faces, const.degens) == (constant.faces, constant.degens)
    finally:
        sys.setswitchinterval(interval)


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


def _short_faces(data):
    data["faces"] = data["faces"][:-1]


def _set_entry(text):
    def change(data):
        data["faces"][2][0][0][0] = text
    return change


def _drop_degeneracies(data):
    del data["degeneracies"]


def _number_as_faces(data):
    data["faces"][2] = 7


def _string_truncation(data):
    data["truncation"] = "3"


def _missing_face(data):
    data["faces"][2] = data["faces"][2][:-1]


def _face_at_level_0(data):
    data["faces"][0] = [[]]


def _degeneracy_at_top(data):
    data["degeneracies"][-1] = data["degeneracies"][-2][:1]


def _true_for_one(data):
    # d_0 from level 2 has an entry 1, which JSON true would read as
    rows = data["faces"][2][0]
    row = next(r for r in rows if 1 in r)
    row[row.index(1)] = True


@pytest.mark.parametrize("corrupt,message", [
    (_short_faces, "faces length"),
    (_set_entry("1/0"), "not a fraction"),
    (_set_entry("abc"), "not a fraction"),
    (_drop_degeneracies, "lacks 'degeneracies'"),
    (_number_as_faces, "faces entries must be lists"),
    (_string_truncation, "truncation must be a nonnegative integer"),
    (_missing_face, "level 2 needs 3 faces"),
    (_face_at_level_0, "level 0 has no faces"),
    (_degeneracy_at_top, "top level has no degeneracies"),
    (_true_for_one, "entry True is not a number"),
], ids=["short-faces", "zero-denominator", "not-a-fraction",
        "no-degeneracies", "number-as-faces", "string-truncation",
        "missing-face", "face-at-level-0", "degeneracy-at-top", "boolean-entry"])
def test_json_rejects_malformed_data(corrupt, message):
    data = json.loads(json.dumps(eilenberg_maclane(QQ, 1, 1, 3).to_json_dict()))
    corrupt(data)
    with pytest.raises(SimplicialError, match=message):
        SimplicialVectorSpace.from_json_dict(data)


def test_json_rejects_bad_shapes():
    k = eilenberg_maclane(GF2, 1, 1, 2)
    data = k.to_json_dict()
    data["level_dims"] = [9] * 3
    with pytest.raises(SimplicialError):
        SimplicialVectorSpace.from_json_dict(data)
