"""One benchmark process: set up one workload, run one of its CLI jobs, report.

Run by ``run.py`` in a fresh interpreter for every job of every pass, so
that peak memory and set-up time belong to that workload alone and no
state that scalg keeps in memory (a module-level cache, say) carries over
from one job or measured pass to the next: every job costs what one CLI
call costs a user.  Set-up is timed from the moment ``run.py`` started this
process (``--spawned-at``, a ``time.time()`` reading) to the job.  The
worker then runs job ``--job`` of the workload's seeded job list under a
speed probe, traced with ``--trace 1``, and writes one JSON result line
with every time both in seconds and in reference seconds (speed.py).
Without ``--job`` it reports the set-up time and stops.

Every job calls ``scalg.cli.main(argv, stdout=...)`` in-process and is
checked against its golden record: exit code and the SHA-256 of stdout.
The seeded ``property-test`` job has no golden record; it must exit 0
with no failures and one rank-nullity check per case.  A job that raises
or runs past the worker's deadline counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# A job still running this long after the worker started (or ``--cap-s``)
# is stopped and counted as failed; run.py kills the worker a little later.
DEADLINE_S = 150.0


class JobTimeout(Exception):
    pass


def import_scalg():
    """Import scalg from this checkout's ``src``; never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "scalg", "__init__.py")):
        raise SystemExit("perfbench: no scalg sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import scalg.cli

    if not os.path.abspath(scalg.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: scalg imported from %s, not %s"
                         % (scalg.cli.__file__, SRC))
    return scalg.cli


def load_json(name):
    with open(os.path.join(HERE, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def job_list(workload, seed, key="jobs"):
    """The workload's argv lists for this seed: seeded inputs filled in and
    the order shuffled by the seed."""
    jobs = [[a.replace("{seed}", str(seed)) for a in argv]
            for argv in load_json("workloads.json")[workload][key]]
    random.Random(seed).shuffle(jobs)
    return jobs


def job_key(argv):
    return " ".join(argv)


def is_seeded(argv):
    return argv[0] == "property-test"


def run_job(cli, argv, cap_s):
    """(exit code, stdout text, seconds, error) of one in-process CLI call."""
    buf = io.StringIO()
    err = None
    code = None

    def on_alarm(signum, frame):
        raise JobTimeout("ran past its time cap of %.1f s" % cap_s)

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(cap_s, 0.001))
    t0 = time.perf_counter()
    try:
        code = cli.main(list(argv), stdout=buf)
    except Exception as exc:  # a raising job is a failed job, not a dead run
        err = "%s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return code, buf.getvalue(), time.perf_counter() - t0, err


def digest(out):
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def check_job(argv, code, out, golden):
    """None if the job's output is right, else the reason it is not."""
    if is_seeded(argv):
        cases = int(argv[argv.index("--cases") + 1])
        if code != 0:
            return "exit %r, want 0" % code
        payload = json.loads(out)
        if payload["failures"] != []:
            return "failures %r" % payload["failures"]
        if payload["checks"]["rank_nullity"] != cases:
            return "rank_nullity %r, want %d" % (payload["checks"]["rank_nullity"], cases)
        return None
    want = golden.get(job_key(argv))
    if want is None:
        return "no golden record"
    if code != want["exit"]:
        return "exit %r, want %r" % (code, want["exit"])
    if digest(out) != want["sha256"]:
        return "stdout differs from the golden record (%d bytes, want %d)" % (
            len(out.encode("utf-8")), want["bytes"])
    return None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--job", type=int, help="index into the seeded job list; omit to only set up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--cap-s", type=float, default=DEADLINE_S,
                    help="seconds from worker start after which the job is stopped")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.cap_s

    # set-up: import scalg, load the golden records, make the seeded inputs
    cli = import_scalg()
    golden = load_json("golden.json")
    jobs = job_list(args.workload, args.seed)
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s, "setup_ref_s": setup_s * speed.burst_scale()}
    if args.job is None:
        sys.stdout.write(json.dumps(result) + "\n")
        return 0

    argv = jobs[args.job]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.current_job = args.job
        tracer.install()
    try:
        with speed.SpeedProbe(tracer) as probe:
            code, out, secs, err = run_job(cli, argv, deadline - time.perf_counter())
    finally:
        if tracer is not None:
            tracer.uninstall()
    secs -= probe.spent
    scale = probe.scale()
    reason = err or check_job(argv, code, out, golden)
    result.update({
        "job": job_key(argv),
        "job_s": secs,
        "job_ref_s": secs * scale,
        "failure": reason,
        "output": (code, digest(out)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["per_layer"] = {k: v * scale if k.endswith(".s") else v
                               for k, v in tracer.per_layer().items()}
        result["self_ref_s"] = {k: v * scale for k, v in tracer.self_times().items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-%s-seed%d-job%d.json.gz"
                            % (args.workload, args.seed, args.job))
        tracer.write(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
