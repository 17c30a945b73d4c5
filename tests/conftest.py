import pytest

import scalg.symalg


@pytest.fixture
def limit_covering_complexes(monkeypatch):
    """limit(count) makes sym_power_covering_complex raise after count more
    calls, so that a loop over every weight up to a huge W fails instead of
    running for ever; it returns the list of calls made."""
    build = scalg.symalg.sym_power_covering_complex

    def limit(count):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            if len(calls) > count:
                raise AssertionError("enumerates every weight")
            return build(*args, **kwargs)

        monkeypatch.setattr(scalg.symalg, "sym_power_covering_complex", counted)
        return calls

    return limit
