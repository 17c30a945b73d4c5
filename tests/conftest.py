import random
from fractions import Fraction
from itertools import combinations

import pytest

import scalg.symalg
from scalg.exactfield import _EMPTY_COLUMN, Mat, _unit_columns, canonical, solve
from scalg.simplicial import SimplicialVectorSpace, gamma


@pytest.fixture
def assert_shared_columns():
    """check(*mats) asserts that every column {k: 1} of the matrices is
    the shared column of row k, every empty column the shared empty one,
    and that every other column is its matrix's own: no such column
    occurs twice among them."""

    def check(*mats):
        own = []
        for mat in mats:
            for col in mat.cols:
                if not col:
                    assert col is _EMPTY_COLUMN
                elif len(col) == 1 and list(col.values()) == [1]:
                    (k,) = col
                    assert col is _unit_columns(k + 1)[k]
                else:
                    own.append(id(col))
        assert len(set(own)) == len(own)

    return check


@pytest.fixture
def dim_budget(monkeypatch):
    """set(budget) makes budget the dimension budget of the Sym^d covering
    complexes (scalg.symalg.DIM_BUDGET) until the test ends."""

    def set_budget(budget):
        monkeypatch.setattr(scalg.symalg, "DIM_BUDGET", budget)

    return set_budget


@pytest.fixture
def limit_weight_pieces(monkeypatch):
    """limit(count) makes sym_power_homology and _certified each raise
    after count more calls, so that a loop over every weight up to a huge
    W fails instead of running for ever; it returns the list of
    sym_power_homology calls made.

    sphere_homotopy calls sym_power_homology once per weight it computes
    for q = 1, and once per one-generator piece for q > 1.  A weight of
    q > 1 generators that is certified below n needs no piece, but it
    reads its count, _certified, once.

    The complex built inside, divided_power_covering_complex, would be no
    guard: a weight whose certified range ends below 2d builds nothing.
    """

    def limited(compute, calls, count):
        def counted(*args, **kwargs):
            calls.append(args)
            if len(calls) > count:
                raise AssertionError("enumerates every weight")
            return compute(*args, **kwargs)

        return counted

    def limit(count):
        calls = []
        for name, log in (("sym_power_homology", calls), ("_certified", [])):
            compute = getattr(scalg.symalg, name)
            monkeypatch.setattr(scalg.symalg, name, limited(compute, log, count))
        return calls

    return limit


def random_change_of_basis(rng, field, n):
    """L @ S for a random permutation S and lower unitriangular L, and its
    inverse.

    S scatters the degenerate basis vectors of a gamma object (which come
    first in each level) and L fills each image in below its first entry,
    so the degenerate span has scattered pivot rows and columns with
    entries on other pivot rows.  Over Q the entries are not integral.
    """
    if field.characteristic == 0:
        pick = lambda: rng.choice([-1, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
    else:
        pick = lambda: rng.randrange(field.characteristic)
    L = Mat.from_rows(field, [[1 if i == j else pick() if i > j else 0
                               for j in range(n)] for i in range(n)], ncols=n)
    order = rng.sample(range(n), n)
    P = L @ Mat(field, n, n, [{order[j]: 1} for j in range(n)])
    inverse = Mat(field, n, n, [solve(P, {j: 1}) for j in range(n)])
    assert P @ inverse == Mat.identity(field, n)
    return P, inverse


def _conjugated_gamma(field, T):
    """(v, w): a gamma object v truncated at T, with homotopy F in degrees
    0, 1 and 2, and w, its conjugate by a random change of basis on each
    level, built and checked through the constructor.

    Degeneracies of gamma objects send basis vectors to basis vectors;
    those of w have images with many entries, some on other pivot rows.
    """
    dims = [1, 1, 2, 1]
    diffs = [None, Mat.zero(field, 1, 1), Mat.zero(field, 1, 2),
             Mat.from_rows(field, [[0], [1]])]
    v = gamma(field, dims, diffs, T)
    rng = random.Random(2)
    P, inv = zip(*[random_change_of_basis(rng, field, n)
                    for n in v.level_dims])
    faces = [[]] + [[P[m - 1] @ d @ inv[m] for d in v.faces[m]]
                    for m in range(1, T + 1)]
    degens = [[P[m + 1] @ s @ inv[m] for s in v.degens[m]]
              for m in range(T)] + [[]]
    return v, SimplicialVectorSpace(field, v.level_dims, faces, degens)


@pytest.fixture
def conjugated_gamma():
    """The builder (field, T) -> (v, w) of _conjugated_gamma."""
    return _conjugated_gamma


def bar_bases_by_filtering(f, N, T, W):
    """Every tuple of the window of bar_diagonal(f, N, T, W), level by
    level in sorted order, degenerate ones included: every b code tested
    against the weight bound for each (positions, choice), as the bar
    enumerated them before taking b codes by weight slice."""
    s = f.weight_ratio
    a_components = f.source.components[: W // s + 1]
    b_components = f.target.components[: W + 1]
    bases = []
    for m in range(T + 1):
        nonunit = [(d, i) for d in range(1, len(a_components))
                   for i in range(a_components[d].level_dims[m])]
        bcodes = [(d, i) for d, comp in enumerate(b_components)
                  for i in range(comp.level_dims[m])]
        basis = []
        choices = [((), 0)]
        for k in range(min(N, m, W // s) + 1):
            if k:
                choices = [(choice + (c,), wa + c[0]) for choice, wa in choices
                           for c in nonunit if s * (wa + c[0]) <= W]
            for positions in combinations(range(m), k):
                for choice, wa in choices:
                    slots = [(0, 0)] * m
                    for pos, c in zip(positions, choice):
                        slots[pos] = c
                    slots = tuple(slots)
                    basis.extend((slots, b) for b in bcodes
                                 if s * wa + b[0] <= W)
        basis.sort()
        bases.append(basis)
    return bases


def generic_face(f, tuple_, m, i, index):
    """d_i of a level-m bar tuple with every slot's and b's image read off
    the component face matrices, every adjacent pair multiplied by
    multiply_elements and the last slot pushed through weight_map, unit
    slots included, as a column over the level-(m - 1) index."""
    A, B, s = f.source, f.target, f.weight_ratio
    slots, (db, jb) = tuple_
    lvl = m - 1
    terms = [((), 1)]
    for d, j in slots:
        img = A.components[d].faces[m][i].cols[j]
        terms = [(prefix + ((d, j2),), c * v)
                 for prefix, c in terms for j2, v in img.items()]
    col = {}

    def add(slots, b, v):
        key = index[(slots, b)]
        col[key] = col.get(key, 0) + v

    for image, c in terms:
        for jb2, u in B.components[db].faces[m][i].cols[jb].items():
            if i == 0:
                if image[0][0] == 0:
                    add(image[1:], (db, jb2), c * u)
            elif i < m:
                (d1, i1), (d2, i2) = image[i - 1], image[i]
                prod = A.multiply_elements(d1, {i1: 1}, d2, {i2: 1}, lvl)
                for j, v in prod.items():
                    add(image[: i - 1] + ((d1 + d2, j),) + image[i + 1:],
                        (db, jb2), c * u * v)
            else:
                dl, il = image[-1]
                pushed = f.weight_map(dl, lvl).cols[il]
                for j, v in B.multiply_elements(dl * s, pushed, db, {jb2: 1},
                                                lvl).items():
                    add(image[:-1], (dl * s + db, j), c * u * v)
    return canonical(col, f.field.characteristic)


def generic_degeneracy(f, tuple_, m, i, index):
    """s_i of a level-m bar tuple with every slot's and b's image
    multiplied out, as a column over the level-(m + 1) index."""
    slots, (db, jb) = tuple_
    terms = [((), 1)]
    for d, j in slots:
        img = f.source.components[d].degens[m][i].cols[j]
        terms = [(prefix + ((d, j2),), c * v)
                 for prefix, c in terms for j2, v in img.items()]
    col = {}
    for prefix, c in terms:
        for j2, v in f.target.components[db].degens[m][i].cols[jb].items():
            key = index[(prefix[:i] + ((0, 0),) + prefix[i:], (db, j2))]
            col[key] = col.get(key, 0) + c * v
    return canonical(col, f.field.characteristic)


def _full_bar(f, N, T, W):
    """(full, bases): the whole bar diagonal of bar_diagonal(f, N, T, W),
    built from the rules above and not from scalg.barcof.  bases[m] lists
    every level-m tuple of the window in sorted order, and full is the
    SimplicialVectorSpace on them whose faces and degeneracies are the
    images multiplied out slot by slot, checked on every simplicial
    identity by from_operators."""
    bases = bar_bases_by_filtering(f, N, T, W)
    index = [{t: r for r, t in enumerate(basis)} for basis in bases]

    def operator(m, i, to):
        rule = generic_face if to < m else generic_degeneracy
        return Mat(f.field, len(bases[to]), len(bases[m]),
                   [rule(f, t, m, i, index[to]) for t in bases[m]])

    dims = [len(basis) for basis in bases]
    return SimplicialVectorSpace.from_operators(f.field, dims, operator), bases


@pytest.fixture
def full_bar():
    """_full_bar itself: (f, N, T, W) -> (full, bases)."""
    return _full_bar
