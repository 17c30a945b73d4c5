import pytest

import scalg.symalg
from scalg.exactfield import _EMPTY_COLUMN, _unit_columns


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
    """limit(count) makes sym_power_homology raise after count more calls,
    so that a loop over every weight up to a huge W fails instead of
    running for ever; it returns the list of calls made.

    sphere_homotopy calls it once per weight it computes, for that
    weight's one-generator piece, whatever the number of generators.

    The complex built inside, divided_power_covering_complex, would be no
    guard: a weight whose certified range ends below 2d builds nothing.
    """
    compute = scalg.symalg.sym_power_homology

    def limit(count):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            if len(calls) > count:
                raise AssertionError("enumerates every weight")
            return compute(*args, **kwargs)

        monkeypatch.setattr(scalg.symalg, "sym_power_homology", counted)
        return calls

    return limit
