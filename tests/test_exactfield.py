import ast
import copy
import pickle
import random
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scalg import exactfield
from scalg.exactfield import (
    ColumnEchelon,
    FieldSpec,
    FieldError,
    Mat,
    QQ,
    GF2,
    GF3,
    pivot_rows,
    rank,
    kernel_basis,
    solve,
    axpy,
    canonical,
)
from scalg.simplicial import ChainComplex, eilenberg_maclane
from mat_helpers import is_zero, transpose


# ---------------------------------------------------------------- oracles

def rank_by_row_elimination(rows, field):
    """Independent rank: dense row elimination, rightmost-column-first pivots.

    Different data layout and different pivot order from the library's
    column echelon, so agreement is a real cross-check.
    """
    rows = [[field.element(x) for x in r] for r in rows]
    if not rows:
        return 0
    p = field.characteristic

    def reduce(x):
        return x % p if p else x

    ncols = len(rows[0])
    r = 0
    for c in range(ncols - 1, -1, -1):
        pivot = None
        for i in range(len(rows) - 1, r - 1, -1):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [reduce(inv * x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [reduce(x - f * y) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def random_dense(rng, field, nrows, ncols):
    if field.characteristic == 0:
        pick = lambda: Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    else:
        pick = lambda: rng.randrange(field.characteristic)
    return [[pick() for _ in range(ncols)] for _ in range(nrows)]


# ------------------------------------------------------------ field spec

def test_fieldspec_accepts_zero_and_primes():
    for c in (0, 2, 3, 5, 7, 11, 101):
        assert FieldSpec(c).characteristic == c


def test_fieldspec_rejects_composites_and_negatives():
    for c in (1, 4, 6, 9, 100, -2, -1):
        with pytest.raises(FieldError):
            FieldSpec(c)


def test_primality_agrees_with_trial_division():
    for n in [-3, -2, -1] + list(range(1, 3000)):  # 0 is Q, not F_0
        prime = n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
        if prime:
            assert FieldSpec(n).characteristic == n
        else:
            with pytest.raises(FieldError):
                FieldSpec(n)


def test_large_characteristics_are_decided_quickly():
    start = time.perf_counter()
    for p in (2**61 - 1, 2**64 - 59):  # both prime
        assert FieldSpec(p).characteristic == p
    # a strong pseudoprime to bases 2, 3, 5 and 7; 2**64 - 1 is composite;
    # 2**64 + 13 is past the bound below which the primality test is exact
    for c in (3215031751, 2**64 - 1, 2**64 + 13):
        with pytest.raises(FieldError):
            FieldSpec(c)
    assert time.perf_counter() - start < 1.0


def test_fp_elements_are_canonical():
    F = FieldSpec(5)
    assert F.element(7) == 2
    assert F.element(-1) == 4
    assert F.element(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(FieldError):
        F.element(Fraction(1, 5))


def test_rational_elements():
    assert QQ.element(3) == Fraction(3)
    assert type(QQ.element(3)) is int
    assert QQ.element(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(FieldError):
        QQ.element(0.5)


def test_rational_inverse_is_an_int_when_integral():
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert QQ.inv(2) == Fraction(1, 2)
    # unit pivots only: the kernel basis holds plain ints, not Fraction(1)s
    k = kernel_basis(Mat.from_rows(QQ, [[1, -1, 0], [0, 1, -1]]))
    assert k.ncols == 1
    assert all(type(v) is int for col in k.cols for v in col.values())


# ---------------------------------------------------------------- rank

def test_rank_empty_matrix():
    assert rank(Mat.zero(QQ, 0, 0)) == 0
    assert rank(Mat.zero(GF2, 0, 5)) == 0
    assert rank(Mat.zero(GF2, 5, 0)) == 0


def test_rank_identity_over_f2():
    assert rank(Mat.identity(GF2, 3)) == 3


def test_rank_proportional_rows():
    # [[2,4],[1,2]]: second row is half the first over Q, and the matrix
    # reduces to [[0,0],[1,0]] over F_2; rank 1 both ways.
    m_q = Mat.from_rows(QQ, [[2, 4], [1, 2]])
    assert rank(m_q) == 1
    m_2 = Mat.from_rows(GF2, [[2, 4], [1, 2]])
    assert m_2.to_rows() == [[0, 0], [1, 0]]
    assert rank(m_2) == 1


@pytest.mark.parametrize("row", [2, -1])
def test_to_rows_refuses_a_row_outside_the_matrix(row):
    # Mat() builds it unchecked; a negative row would land in the last row
    m = Mat(QQ, 2, 2, [{0: 1}, {row: 1}])
    with pytest.raises(ValueError, match=r"^column 1 has an entry in row %d, "
                       r"outside rows 0\.\.1$" % row):
        m.to_rows()


def test_rank_matches_second_elimination_order():
    rng = random.Random(7)
    for field in (QQ, GF2, GF3):
        for _ in range(25):
            nr = rng.randint(0, 6)
            nc = rng.randint(0, 6)
            rows = random_dense(rng, field, nr, nc)
            m = Mat.from_rows(field, rows, ncols=nc)
            assert rank(m) == rank_by_row_elimination(rows, field)
            # rank()'s bitmask (F_2) and integral (Q) paths against the
            # exact kernel they stand in for
            ech = ColumnEchelon(field, nr)
            for col in m.cols:
                ech.insert(col)
            assert rank(m) == ech.rank


def test_rank_deterministic_bit_for_bit():
    rng = random.Random(3)
    rows = random_dense(rng, GF3, 5, 7)
    m = Mat.from_rows(GF3, rows)
    k1 = kernel_basis(m)
    k2 = kernel_basis(Mat.from_rows(GF3, rows))
    assert k1 == k2
    assert rank(m) == rank(Mat.from_rows(GF3, rows))


# ---------------------------------------------------------------- kernel

def test_kernel_of_identity_is_trivial():
    k = kernel_basis(Mat.identity(GF2, 4))
    assert k.ncols == 0
    assert k.nrows == 4


def test_kernel_of_zero_map_is_everything():
    k = kernel_basis(Mat.zero(QQ, 2, 3))
    assert k.ncols == 3
    assert rank(k) == 3


def test_kernel_of_sum_functional_over_f2():
    m = Mat.from_rows(GF2, [[1, 1]])
    k = kernel_basis(m)
    assert k.ncols == 1
    assert k.cols[0] == {0: 1, 1: 1}
    # exhaustive: (1,1) is the only nonzero vector killed by [1 1] over F_2
    for v in ((0, 1), (1, 0)):
        assert m.apply({i: x for i, x in enumerate(v) if x}) != {}


def test_kernel_columns_are_killed_and_independent():
    rng = random.Random(11)
    for field in (QQ, GF2, GF3):
        for _ in range(20):
            nr = rng.randint(0, 5)
            nc = rng.randint(0, 6)
            m = Mat.from_rows(field, random_dense(rng, field, nr, nc), ncols=nc)
            k = kernel_basis(m)
            assert is_zero(m @ k)
            assert rank(k) == k.ncols
            assert k.ncols == nc - rank(m)


# --------------------------------------------------------------- solve

def test_solve_finds_solution_or_none():
    m = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    x = solve(m, {0: Fraction(5), 1: Fraction(11)})
    assert x is not None
    assert m.apply(x) == {0: Fraction(5), 1: Fraction(11)}
    m2 = Mat.from_rows(QQ, [[1, 1], [1, 1]])
    assert solve(m2, {0: Fraction(1)}) is None


def test_normal_form_is_the_coset_representative_off_the_pivot_rows():
    rng = random.Random(23)
    for field in (QQ, GF2, GF3):
        p = field.characteristic
        for _ in range(20):
            nr, nc = rng.randint(1, 6), rng.randint(0, 6)
            span = Mat.from_rows(field, random_dense(rng, field, nr, nc), ncols=nc)
            ech = ColumnEchelon(field, nr)
            for col in span.cols:
                ech.insert(col)
            vec = Mat.from_rows(field, random_dense(rng, field, nr, 1)).cols[0]
            red = ech.normal_form(vec)
            assert not set(red) & set(ech.pivots)
            # vec - red lies in the span
            assert solve(span, axpy(dict(vec), -1, red, p)) is not None
            assert all(ech.normal_form(col) == {} for col in span.cols)


# ------------------------------------------- homology of a composable pair

def homology_dim(d_in, d_out):
    """Homology at the middle of d_in followed by d_out, by
    ChainComplex.homology_dims: it ranks d_out only on its columns off the
    pivot rows of d_in (pivot_rows(drop=...)), and checks the shapes and
    d_out o d_in = 0 first."""
    F = d_in.field
    cx = ChainComplex(F, [d_out.nrows, d_out.ncols, d_in.ncols],
                      [Mat.zero(F, 0, d_out.nrows), d_out, d_in])
    return cx.homology_dims()[1]


def test_homology_two_zero_maps():
    d_in = Mat.zero(QQ, 4, 0)
    d_out = Mat.zero(QQ, 0, 4)
    assert homology_dim(d_in, d_out) == 4


def test_homology_identity_incoming_kills_everything():
    d_in = Mat.identity(GF2, 3)
    d_out = Mat.zero(GF2, 0, 3)
    assert homology_dim(d_in, d_out) == 0


def test_homology_koszul_style_pair():
    # dims (1, 3, 1): d_in of rank 1 into the 3-dim middle, d_out of rank 1
    # out of it, composing to zero; rank-nullity gives H = (3-1) - 1 = 1.
    d_in = Mat.from_rows(QQ, [[1], [0], [0]])
    d_out = Mat.from_rows(QQ, [[0, 0, 1]])
    assert is_zero(d_out @ d_in)
    assert homology_dim(d_in, d_out) == 1


def test_homology_rejects_noncomposable_and_nonzero_dd():
    with pytest.raises(ValueError):
        homology_dim(Mat.zero(QQ, 2, 1), Mat.zero(QQ, 1, 3))
    d_in = Mat.from_rows(QQ, [[1], [0]])
    d_out = Mat.from_rows(QQ, [[1, 0]])
    with pytest.raises(ValueError):
        homology_dim(d_in, d_out)


# ------------------------------------------------------------ properties

small_f2_rows = st.lists(
    st.lists(st.integers(0, 1), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_f2_rows)
def test_rank_nullity_f2(rows):
    m = Mat.from_rows(GF2, rows)
    assert rank(m) + kernel_basis(m).ncols == m.ncols


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, GF2, GF3]), st.integers(0, 6), st.integers(0, 6),
       st.data(), st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation_and_transpose(field, nr, nc, data, rng):
    # rank() reorders rows and columns before it eliminates; the answer
    # must not depend on the order the matrix arrives in
    entries = [0, 0, 1, -1, 2, 3] + ([Fraction(1, 2)] if field != GF2 else [])
    row = st.lists(st.sampled_from(entries), min_size=nc, max_size=nc)
    rows = data.draw(st.lists(row, min_size=nr, max_size=nr))
    m = Mat.from_rows(field, rows, ncols=nc)
    r = rank_by_row_elimination(rows, field)
    assert rank(m) == r
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rank(Mat.from_rows(field, shuffled, ncols=nc)) == r
    cols = list(range(nc))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled]
    assert rank(Mat.from_rows(field, permuted, ncols=nc)) == r
    assert rank(transpose(m)) == r
    # the column space maps isomorphically onto the pivot rows
    pivots = pivot_rows(m)
    assert len(pivots) == r
    assert rank_by_row_elimination([rows[i] for i in sorted(pivots)], field) == r


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                 min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_nullity_rational(rows):
    m = Mat.from_rows(QQ, rows)
    assert rank(m) + kernel_basis(m).ncols == m.ncols
    assert rank(m) == rank(transpose(m))


def test_homology_dim_agrees_with_second_pivot_rule():
    rng = random.Random(23)
    for field in (QQ, GF2, GF3):
        for _ in range(15):
            a, b, c = (rng.randint(1, 4) for _ in range(3))
            d_out = Mat.from_rows(field, random_dense(rng, field, c, b), ncols=b)
            k = kernel_basis(d_out)
            mix = Mat.from_rows(
                field, random_dense(rng, field, k.ncols, a), ncols=a
            )
            d_in = k @ mix
            got = homology_dim(d_in, d_out)
            ker_dim = b - rank_by_row_elimination(d_out.to_rows(), field)
            want = ker_dim - rank_by_row_elimination(d_in.to_rows(), field)
            assert got == want


# ------------------------------------------------------------ matrix ops

def test_matmul_and_apply_agree():
    a = Mat.from_rows(GF3, [[1, 2], [0, 1], [2, 2]])
    b = Mat.from_rows(GF3, [[1, 0, 2], [2, 1, 1]])
    ab = a @ b
    for j in range(3):
        assert ab.cols[j] == a.apply(b.cols[j])


def kron_by_definition(a, b):
    """Every product of an entry of a and one of b, placed row-major and
    reduced by canonical: the oracle for Mat.kron's shortcuts."""
    p = a.field.characteristic
    cols = []
    for c1 in a.cols:
        for c2 in b.cols:
            col = {}
            for i1, v1 in c1.items():
                for i2, v2 in c2.items():
                    col[i1 * b.nrows + i2] = v1 * v2
            cols.append(canonical(col, p))
    return Mat(a.field, a.nrows * b.nrows, a.ncols * b.ncols, cols)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_kron_equals_the_product_of_every_entry_pair(field, assert_shared_columns):
    rng = random.Random(31)
    zero_columns = 0
    for _ in range(200):
        a, b = (Mat.from_rows(field, random_dense(rng, field, nr, nc), ncols=nc)
                for nr, nc in [(rng.randint(0, 4), rng.randint(0, 4))
                               for _ in range(2)])
        got, want = a.kron(b), kron_by_definition(a, b)
        assert got == want
        # same entries in the same order; unit and empty columns shared,
        # every other one a fresh dict
        assert [list(c.items()) for c in got.cols] == \
            [list(c.items()) for c in want.cols]
        assert_shared_columns(got)
        zero_columns += sum(not c for c in a.cols) if a.nrows and b.ncols else 0
    assert zero_columns  # the block of empty columns was taken
    if field == QQ:
        half = Mat.from_rows(QQ, [[Fraction(1, 2), 0], [Fraction(-2, 3), 3]])
        assert half.kron(half) == kron_by_definition(half, half)
        assert Fraction(-1, 3) in half.kron(half).cols[0].values()


def random_unit_mat(rng, field, nrows, ncols):
    """Every column {k: 1} or empty, some of each where the shape allows."""
    cols = [{rng.randrange(nrows): 1} if nrows and rng.random() < 0.7 else {}
            for _ in range(ncols)]
    return Mat(field, nrows, ncols, cols)


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_kron_of_unit_matrices_equals_the_definition(field, assert_shared_columns):
    # unit (x) unit goes by the two row maps; unit (x) dense and
    # dense (x) unit by the entry products
    rng = random.Random(22)
    pairs = {"unit-unit": 0, "unit-dense": 0, "dense-unit": 0}
    for case in range(300):
        kind = list(pairs)[case % 3]
        shapes = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(2)]
        a, b = (random_unit_mat(rng, field, nr, nc) if part == "unit"
                else Mat.from_rows(field, random_dense(rng, field, nr, nc),
                                   ncols=nc)
                for part, (nr, nc) in zip(kind.split("-"), shapes))
        got, want = a.kron(b), kron_by_definition(a, b)
        assert got == want
        assert [list(c.items()) for c in got.cols] == \
            [list(c.items()) for c in want.cols]
        assert_shared_columns(got)
        assert got.unit_rows() == Mat(field, want.nrows, want.ncols,
                                      want.cols).unit_rows()
        if any(not c for c in got.cols) and any(c for c in got.cols):
            pairs[kind] += 1
    # every kind of pair was seen with both empty and nonempty columns
    assert all(pairs.values()), pairs


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "F2", "F3"])
def test_kron_and_block_diag_keep_composites_and_identities(field):
    # tensor and direct_sum check no identity of their result: each is the
    # image of a pair of identities under one of these, which must send
    # composites to composites and identities to identities on the nose
    rng = random.Random(37)

    def draw(nrows, ncols):
        if rng.random() < 0.5:
            return random_unit_mat(rng, field, nrows, ncols)
        return Mat.from_rows(field, random_dense(rng, field, nrows, ncols),
                             ncols=ncols)

    nonzero = 0
    for _ in range(200):
        n = [rng.randint(0, 3) for _ in range(6)]
        a, c = draw(n[0], n[1]), draw(n[1], n[2])
        b, d = draw(n[3], n[4]), draw(n[4], n[5])
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)
        assert (Mat.block_diag(field, [a, b]) @ Mat.block_diag(field, [c, d])
                == Mat.block_diag(field, [a @ c, b @ d]))
        nonzero += any((a @ c).kron(b @ d).cols)
        k, l = n[0], n[3]
        assert Mat.identity(field, k).kron(Mat.identity(field, l)) == \
            Mat.identity(field, k * l)
        assert Mat.block_diag(field, [Mat.identity(field, k), Mat.identity(field, l)]) \
            == Mat.identity(field, k + l)
    assert nonzero


def test_unit_rows_marks_unit_empty_and_other_columns():
    m = Mat(QQ, 3, 5, [{2: 1}, {}, {0: 2}, {0: 1, 1: 1}, {1: Fraction(1, 2)}])
    assert m.unit_rows() == [2, -1, None, None, None]
    assert m.unit_rows() is m.unit_rows()  # computed once
    assert Mat.from_unit_rows(GF2, 3, [1, -1]).cols == [{1: 1}, {}]


def test_a_shared_column_cannot_be_edited_in_place(assert_shared_columns):
    mats = [Mat.from_unit_rows(GF2, 3, [1, -1]), Mat.identity(QQ, 2),
            Mat.zero(GF3, 2, 2), Mat(QQ, 1, 1)]
    assert_shared_columns(*mats)
    for mat in mats:
        for col in mat.cols:
            with pytest.raises(TypeError):
                col[0] = 1
            for k in col:
                with pytest.raises(TypeError):
                    del col[k]
    # nothing changed, in these matrices or in new ones
    assert [m.cols for m in mats] == [[{1: 1}, {}], [{0: 1}, {1: 1}],
                                      [{}, {}], [{}]]
    assert Mat.identity(GF3, 3).cols == [{0: 1}, {1: 1}, {2: 1}]


def test_a_mat_with_shared_columns_pickles_and_copies():
    # the shared views do not pickle; a Mat holding them still does
    for mat in (Mat.from_unit_rows(GF3, 3, [2, -1, 1]), Mat.identity(QQ, 2)):
        for copied in (pickle.loads(pickle.dumps(mat)), copy.deepcopy(mat),
                       copy.copy(mat)):
            assert copied == mat
            assert copied.unit_rows() == mat.unit_rows()
    K = eilenberg_maclane(QQ, 1, 2, 4)
    assert pickle.loads(pickle.dumps(K)).faces == K.faces


def test_threads_growing_the_shared_columns_at_once_agree():
    # in each round four threads, released together, ask for tables of
    # four different lengths, all longer than the table so far
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            start = len(exactfield._UNIT_COLUMNS)
            sizes = [start + 300 * (t + 1) for t in range(4)]
            barrier = threading.Barrier(len(sizes), timeout=60)
            built = [None] * len(sizes)

            def build(t):
                barrier.wait()
                built[t] = Mat.from_unit_rows(QQ, sizes[t],
                                              list(range(sizes[t]))[::-1])

            threads = [threading.Thread(target=build, args=(t,))
                       for t in range(len(sizes))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for n, mat in zip(sizes, built):
                assert mat.cols == [{r: 1} for r in range(n)][::-1]
            table = exactfield._UNIT_COLUMNS
            assert len(table) == sizes[-1]
            assert all(col == {r: 1} for r, col in enumerate(table))
    finally:
        sys.setswitchinterval(interval)


def test_no_file_assigns_to_an_item_of_a_cols_attribute():
    # unit_rows() is cached, so a built Mat is never edited: no assignment
    # under src/ or tests/ stores into x.cols[j] (or into x.cols[j][r])
    def edits_cols(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(edits_cols(t) for t in target.elts)
        while isinstance(target, (ast.Subscript, ast.Attribute, ast.Starred)):
            value = target.value
            if (isinstance(target, ast.Subscript)
                    and isinstance(value, ast.Attribute)
                    and value.attr == "cols"):
                return True
            target = value
        return False

    root = Path(__file__).resolve().parents[1]
    found = []
    paths = sorted(p for d in ("src", "tests") for p in root.glob(d + "/**/*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(edits_cols(t) for t in targets):
                found.append("%s:%d" % (path.relative_to(root), node.lineno))
    assert found == []


def test_block_and_stack_shapes():
    a = Mat.identity(GF2, 2)
    b = Mat.zero(GF2, 1, 3)
    d = Mat.block_diag(GF2, [a, b])
    assert (d.nrows, d.ncols) == (3, 5)
