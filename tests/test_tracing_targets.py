"""Every function and method the benchmark traces still exists in scalg.

perfbench/tracing.py lists them in TARGETS as (module, owner, attribute,
span name, count hook) tuples; the file is parsed here, not imported or
changed.  A deleted or renamed scalg function then fails here, instead of
crashing a traced benchmark run (``run.py --trace 1``).
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    """(module, owner, attribute) of every TARGETS entry."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            return [tuple(ast.literal_eval(e) for e in entry.elts[:3])
                    for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py has no TARGETS list")


TARGETS = _targets()


def test_tracing_lists_targets():
    assert TARGETS and all(len(t) == 3 for t in TARGETS)


@pytest.mark.parametrize("module,owner,attr", TARGETS,
                         ids=[".".join(filter(None, t)) for t in TARGETS])
def test_traced_target_resolves(module, owner, attr):
    home = importlib.import_module("scalg." + module)
    if owner is None:
        assert callable(getattr(home, attr, None))
    else:
        # Tracer.install wraps the method found in the class's own dict
        assert callable(vars(getattr(home, owner)).get(attr))
