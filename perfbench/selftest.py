"""Self-test of the benchmark, on one tiny input list per workload.

    python3 perfbench/selftest.py

Checks that tracing changes no output (exit code and stdout bytes are the
same traced and untraced), that every traced span fires on some workload,
so a renamed scalg function fails here instead of reading 0 s, that every
per-layer metric in BENCHMARK.json is one the traced run produces, and
that every fixed job has a golden record.  Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import sys

import tracing
import worker


def main():
    cli = worker.import_scalg()
    problems = []
    fired = set()
    produced = set()
    for name in worker.load_json("workloads.json"):
        for argv in worker.job_list(name, seed=0, key="tiny"):
            plain = worker.run_job(cli, argv, 60)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = worker.run_job(cli, argv, 60)
            finally:
                tracer.uninstall()
            if plain[3] or traced[3]:
                problems.append("%s raised: %s" % (worker.job_key(argv), plain[3] or traced[3]))
            elif (plain[0], plain[1]) != (traced[0], traced[1]):
                problems.append("%s: traced output differs" % worker.job_key(argv))
            fired.update(n for n, k in tracer.calls().items() if k)
            produced.update(tracer.per_layer())
        for argv in worker.job_list(name, seed=0):
            if not worker.is_seeded(argv) and worker.job_key(argv) not in worker.load_json("golden.json"):
                problems.append("%s has no golden record" % worker.job_key(argv))
            produced.add("job.%s.s" % argv[0])
    for name in tracing.SPAN_NAMES:
        if name not in fired:
            problems.append("span %s never fired" % name)
    produced.update(("trace_overhead_frac", "scalg.src_lines"))
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for m in spec["per_layer"]:
        if m["name"] not in produced:
            problems.append("per-layer metric %s is not produced" % m["name"])
    for p in problems:
        print("FAIL", p)
    print("selftest: %d spans fired, %d problem(s)" % (len(fired), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
