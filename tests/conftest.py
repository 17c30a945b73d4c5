import pytest

import scalg.symalg


@pytest.fixture
def limit_weight_pieces(monkeypatch):
    """limit(count) makes sym_power_homology raise after count more calls,
    so that a loop over every weight up to a huge W fails instead of
    running for ever; it returns the list of calls made.

    sphere_homotopy calls it once per weight it computes, and with q > 1
    generators that call recurses once per one-generator piece (d + 1 for
    weight d); every call counts, so the same count allows fewer weights
    for q > 1 than for q = 1.

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
