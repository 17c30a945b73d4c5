"""scalg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sphere-q --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics, each as
the last stdout line in one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it are a readable report.  Every
job of every pass over the workload's job list runs in a fresh worker
process (worker.py), so nothing scalg keeps in memory carries over between
jobs or measured passes; a few more workers only set up, to time set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_ONLY = 6  # set-up-only workers per untraced run; every job worker adds one more sample
# A run must end within 180 s: no pass starts unless it should end by
# RUN_BUDGET_S, every worker is killed by RUN_LIMIT_S after the run began,
# and each stops its own job CAP_MARGIN_S before it would be killed.
RUN_BUDGET_S = 150.0
RUN_LIMIT_S = 170.0
CAP_MARGIN_S = 15.0


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(args, timeout, trace=0, job=None):
    """Run one worker for at most ``timeout`` seconds; return (result dict
    or None, seconds it ran)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--cap-s", repr(max(timeout - CAP_MARGIN_S, 1.0)),
           "--spawned-at", repr(time.time())]
    if job is not None:
        cmd += ["--job", str(job)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.perf_counter() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, time.perf_counter() - t0
    return json.loads(lines[-1]), time.perf_counter() - t0


class Run:
    """The workers of one run and what they report."""

    def __init__(self, args, n_jobs):
        self.args = args
        self.n_jobs = n_jobs
        self.setups = []  # set-up samples, in reference seconds
        self.passes = []  # untraced passes whose every job worker finished
        self.died_s = []  # seconds each pass with a dead job worker ran
        self.attempted = 0
        self.failures = []
        self.began = time.perf_counter()

    def spawn(self, trace=0, job=None):
        left = RUN_LIMIT_S - (time.perf_counter() - self.began)
        return spawn(self.args, max(left, 1.0), trace, job)

    def setup_only(self, n):
        for _ in range(n):
            res, _ = self.spawn()
            self.attempted += 1
            if res is None:
                self.failures.append({"job": "(set-up)", "reason": "set-up worker failed"})
            else:
                self.setups.append(res["setup_ref_s"])

    def one_pass(self, trace=0):
        """Run the job list, one worker per job; return the pass, or None
        if a worker died."""
        p = {"pass_ref_s": 0.0, "ran_s": 0.0, "job_ref_s": {}, "peak_rss_mib": 0.0,
             "outputs": [], "jobs": []}
        died = False
        for j in range(self.n_jobs):
            res, ran_s = self.spawn(trace, j)
            self.attempted += 1
            p["ran_s"] += ran_s
            if res is None:
                # the worker crashed or overran: its job counts as failed
                self.failures.append({"job": "#%d" % j, "reason": "worker died or overran"})
                died = True
                continue
            if res["failure"]:
                self.failures.append({"job": res["job"], "reason": res["failure"]})
            self.setups.append(res["setup_ref_s"])
            sub = "job.%s.s" % res["job"].split()[0]
            p["job_ref_s"][sub] = p["job_ref_s"].get(sub, 0.0) + res["job_ref_s"]
            p["pass_ref_s"] += res["job_ref_s"]
            p["peak_rss_mib"] = max(p["peak_rss_mib"], res["peak_rss_mib"])
            p["outputs"].append(res["output"])
            p["jobs"].append(res)
        if died:
            self.died_s.append(p["ran_s"])
            return None
        if not trace:
            self.passes.append(p)
        return p


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src", "scalg")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def median_or(values, fallback):
    return statistics.median(values) if values else fallback


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "scalg", "__init__.py")):
        sys.stderr.write("perfbench: no scalg sources under %s\n" % ROOT)
        return 2
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load(os.path.join(HERE, "workloads.json"))
    if args.workload not in workloads:
        sys.stderr.write("perfbench: unknown workload %r (have %s)\n"
                         % (args.workload, ", ".join(workloads)))
        return 2
    run = Run(args, len(workloads[args.workload]["jobs"]))
    started = time.perf_counter()

    if args.trace:
        # untraced passes before and after the traced one, so that the
        # tracing overhead is not skewed by which pass ran first
        run.one_pass()
        traced = run.one_pass(trace=1)
        run.one_pass()
    else:
        # set-up samples half before and half after the passes, so that
        # one slow spell of the machine does not hold all of them
        run.setup_only(SETUP_ONLY // 2)
        started = time.perf_counter()
        # more passes while the next one, at the median worker time so
        # far, still ends inside the measuring window; at least one
        while True:
            run.one_pass()
            elapsed = time.perf_counter() - started
            typical = statistics.median([r["ran_s"] for r in run.passes] + run.died_s)
            if elapsed + typical > min(args.seconds, RUN_BUDGET_S):
                break
        run.setup_only(SETUP_ONLY - SETUP_ONLY // 2)

    failed = len(run.failures)
    print("workload %s, seed %d, trace %d: %d pass(es) of %d job(s), %d of %d failed"
          % (args.workload, args.seed, args.trace, len(run.passes), run.n_jobs,
             failed, run.attempted))
    for f in run.failures:
        print("  FAILED %s: %s" % (f["job"], f["reason"]))
    job_ref_s = {}
    for r in run.passes:
        for name, secs in r["job_ref_s"].items():
            job_ref_s.setdefault(name, []).append(secs)
    job_ref_s = {name: statistics.median(v) for name, v in job_ref_s.items()}
    untraced_ref_s = median_or([r["pass_ref_s"] for r in run.passes],
                               time.perf_counter() - started)

    if args.trace:
        wanted = spec["per_layer"]
        if traced is None:
            values = {m["name"]: 0 for m in wanted}
        else:
            if any(r["outputs"] != traced["outputs"] for r in run.passes):
                print("  traced output differs from untraced output")
                run.attempted += 1
                failed += 1
            values = tracing.merge_per_layer(r["per_layer"] for r in traced["jobs"])
            values["trace_overhead_frac"] = traced["pass_ref_s"] / untraced_ref_s - 1.0
            self_s = Counter()
            for r in traced["jobs"]:
                self_s.update(r["self_ref_s"])
            print("  layer shares of traced self time: %s"
                  % json.dumps(tracing.layer_shares(self_s)))
            print("  spans: %s" % ", ".join(r["spans_file"] for r in traced["jobs"]))
        values["scalg.src_lines"] = src_lines()
        for wl in workloads.values():
            for job in wl["jobs"]:
                values.setdefault("job.%s.s" % job[0], 0.0)
        values.update(job_ref_s)
    else:
        # a run whose workers all died still reports every metric, from
        # the seconds the dead workers ran
        fallback = median_or(run.died_s, 0.0)
        values = {
            "wall_s": untraced_ref_s,
            "setup_s": median_or(run.setups, fallback),
            "peak_rss_mib": median_or([r["peak_rss_mib"] for r in run.passes], 0.0),
        }
        wanted = spec["end_to_end"]
        print("  failed_frac %.4f ratio (%d of %d attempted)"
              % (failed / run.attempted, failed, run.attempted))
        print("  measured seconds, before scaling to reference seconds (speed.py):")
        print("    passes %s" % ", ".join("%.3f" % sum(j["job_s"] for j in r["jobs"])
                                       for r in run.passes))
        print("    set-ups %s" % ", ".join("%.4f" % j["setup_s"]
                                        for r in run.passes for j in r["jobs"]))
        print("  peak RSS of each pass (its largest job worker), MiB: %s"
              % ", ".join("%.1f" % r["peak_rss_mib"] for r in run.passes))
        for name, secs in sorted(job_ref_s.items()):
            print("  %s %.4f reference s, median over passes" % (name, secs))
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-44s %14.6g %s" % (m["name"], value, m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
