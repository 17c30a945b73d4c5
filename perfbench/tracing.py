"""Span tracing around the public functions of each scalg layer.

The wrappers live here, never in ``src/scalg``: ``Tracer.install`` rebinds
each traced function on every ``scalg`` module that bound it (``from
.exactfield import rank`` copies the binding into ``scalg.simplicial``) and
each traced method on its class; ``Tracer.uninstall`` puts the originals
back.  Every call records a span (name, start, end, parent, job) in flat
arrays, so a traced run holding millions of spans stays small, and counts
(calls, shapes, nnz) taken at the same boundaries.  Nothing finer than the
functions in ``TARGETS`` is wrapped: ``ColumnEchelon.insert`` runs once per
column and would cost more to trace than it does to run.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter

FIELD_TAG = {0: "Q", 2: "F2"}


def _rank_name(args, kwargs):
    return "exactfield.rank." + FIELD_TAG.get(args[0].field.characteristic, "Fp")


def _count_rank(counts, args, kwargs, result):
    M = args[0]
    counts["exactfield.rank.calls"] += 1
    counts["exactfield.rank.nnz_in"] += M.nnz()
    counts["exactfield.rank.max_cols"] = max(counts["exactfield.rank.max_cols"], M.ncols)


def _count_covering(counts, args, kwargs, result):
    counts["symalg.covering_basis_dim"] += sum(result[0].dims)


def _count_bar_diagonal(counts, args, kwargs, result):
    counts["barcof.bar_diagonal.dim"] += sum(result.level_dims)


def _count_sym_power_homology(counts, args, kwargs, result):
    counts.distinct_args.add((args, tuple(sorted(kwargs.items()))))


# (module, owner, attribute, span name, count hook).  The owner is a class
# name for methods and None for module functions; the span name is a
# callable where it depends on the arguments.
TARGETS = [
    ("exactfield", None, "rank", _rank_name, _count_rank),
    ("exactfield", None, "kernel_basis", "exactfield.kernel_basis", None),
    ("exactfield", "Mat", "__matmul__", "exactfield.matmul", None),
    ("simplicial", "SimplicialVectorSpace", "check_identities",
     "simplicial.check_identities", None),
    ("simplicial", "ChainComplex", "__init__", "simplicial.chain_check", None),
    ("simplicial", "SimplicialVectorSpace", "normalized_chains",
     "simplicial.normalized_chains", None),
    ("simplicial", "ChainComplex", "homology_reps", "simplicial.homology_reps", None),
    ("simplicial", "ChainComplex", "homology_dims", "simplicial.homology_dims", None),
    ("simplicial", None, "gamma", "simplicial.gamma", None),
    ("symalg", None, "sym_power_covering_complex",
     "symalg.sym_power_covering_complex", _count_covering),
    ("symalg", None, "sym_power_homology", "symalg.sym_power_homology",
     _count_sym_power_homology),
    ("symalg", None, "symmetric_power", "symalg.symmetric_power", None),
    ("symalg", None, "sphere_algebra", "symalg.sphere_algebra", None),
    ("barcof", None, "bar_diagonal", "barcof.bar_diagonal", _count_bar_diagonal),
    ("barcof", None, "representing_map", "barcof.representing_map", None),
    ("barcof", "AlgebraMap", "rebuilt", "barcof.rebuilt", None),
    ("series", None, "sphere_series_charp", "series.sphere_series_charp", None),
    ("series", None, "phi_eval", "series.phi_eval", None),
    ("audit", None, "serre_audit", "audit.serre_audit", None),
    ("cli", None, "render", "cli.render", None),
    ("cli", None, "main", "cli.main", None),
]

SPAN_NAMES = [t[3] for t in TARGETS if not callable(t[3])] + [
    "exactfield.rank." + tag for tag in ("Q", "F2", "Fp")]

# Span names whose call count is a per-layer metric (``<name>.calls``).
COUNTED_CALLS = [
    "exactfield.kernel_basis", "exactfield.matmul", "simplicial.homology_dims",
    "symalg.sym_power_homology", "series.sphere_series_charp", "series.phi_eval",
]


class _Counts(Counter):
    def __init__(self):
        super().__init__()
        self.distinct_args = set()


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")  # seconds inside the span that are not its work
        self.counts = _Counts()
        self.current_job = -1
        self._stack = []
        # True during span bookkeeping and counting, whose time belongs to
        # no span: the speed probe then skips its sample (speed.py)
        self.busy = False
        self._patches = []

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def exclude(self, seconds):
        """Mark time just spent (by the speed probe) as not the open span's."""
        if self._stack:
            self.excluded[self._stack[-1]] += seconds

    def _wrap(self, fn, span_name, hook):
        tracer = self
        fixed_id = None if callable(span_name) else self._name_id(span_name)

        def traced(*args, **kwargs):
            i = fixed_id if fixed_id is not None else tracer._name_id(span_name(args, kwargs))
            with _Span(tracer, i):
                result = fn(*args, **kwargs)
            if hook is not None:
                # counting runs outside the span and is excluded from the
                # enclosing one, so no self time pays for it
                tracer.busy = True
                t0 = time.perf_counter()
                try:
                    hook(tracer.counts, args, kwargs, result)
                finally:
                    tracer.exclude(time.perf_counter() - t0)
                    tracer.busy = False
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import scalg  # noqa: F401  (loads every layer module)

        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "scalg" or n.startswith("scalg."))]
        for mod_name, owner, attr, span_name, hook in TARGETS:
            home = sys.modules["scalg." + mod_name]
            if owner is not None:
                cls = getattr(home, owner)
                fn = cls.__dict__[attr]
                self._patch(cls, attr, fn, self._wrap(fn, span_name, hook))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, span_name, hook)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Seconds of self time per span name: duration minus child spans
        and excluded time."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.name[i]]] += dur[i] - child[i] - self.excluded[i]
        return out

    def calls(self):
        return Counter(self.names[i] for i in self.name)

    def per_layer(self):
        """Per-layer metric values keyed by metric name (see BENCHMARK.json)."""
        selfs = self.self_times()
        calls = self.calls()
        out = {name + ".s": selfs.get(name, 0.0) for name in SPAN_NAMES}
        for name in COUNTED_CALLS:
            out[name + ".calls"] = calls.get(name, 0)
        for key in ("exactfield.rank.calls", "exactfield.rank.nnz_in",
                    "exactfield.rank.max_cols", "symalg.covering_basis_dim",
                    "barcof.bar_diagonal.dim"):
            out[key] = self.counts[key]
        n_sph = calls.get("symalg.sym_power_homology", 0)
        out["symalg.sym_power_homology.distinct_ratio"] = (
            len(self.counts.distinct_args) / n_sph if n_sph else 1.0
        )
        return out

    def write(self, path):
        """Write every span as one gzipped JSON document of columns."""
        doc = {
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "excluded": list(self.excluded),
            "job": list(self.job),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def merge_per_layer(parts):
    """Per-layer metrics of a pass from those of its jobs, each traced in a
    process of its own: times and counts add up, the largest matrix is the
    largest of any job, and repeated ``sym_power_homology`` arguments count
    within a job only, as no process sees another's calls."""
    out = Counter()
    distinct = 0
    for part in parts:
        for key, value in part.items():
            if key == "exactfield.rank.max_cols":
                out[key] = max(out[key], value)
            elif key == "symalg.sym_power_homology.distinct_ratio":
                distinct += value * part["symalg.sym_power_homology.calls"]
            else:
                out[key] += value
    n_sph = out["symalg.sym_power_homology.calls"]
    out["symalg.sym_power_homology.distinct_ratio"] = round(distinct) / n_sph if n_sph else 1.0
    return dict(out)


def layer_shares(self_s):
    """Share of all traced self time spent in each scalg module, and in
    each span name with at least 1% of it, from self seconds per span."""
    total = sum(self_s.values())
    modules = Counter()
    for name, t in self_s.items():
        modules[name.split(".")[0]] += t / total if total else 0.0
    spans = {name: round(t / total, 3) for name, t in
             sorted(self_s.items(), key=lambda kv: -kv[1]) if total and t >= 0.01 * total}
    return {"module": {layer: round(v, 4) for layer, v in sorted(modules.items())},
            "span": spans}


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer, name_id):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        t = self.tracer
        t.busy = True
        self.index = len(t.start)
        t.name.append(self.name_id)
        t.parent.append(t._stack[-1] if t._stack else -1)
        t.job.append(t.current_job)
        t.end.append(0.0)
        t.excluded.append(0.0)
        t._stack.append(self.index)
        t.start.append(time.perf_counter())
        t.busy = False
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.busy = True
        t.end[self.index] = time.perf_counter()
        t._stack.pop()
        t.busy = False
        return False
