import pytest

import scalg.symalg


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
