import random
from fractions import Fraction

import pytest

import scalg.symalg
from scalg.exactfield import _EMPTY_COLUMN, Mat, _unit_columns, solve
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
