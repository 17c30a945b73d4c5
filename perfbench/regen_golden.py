"""Rewrite golden.json: exit code and stdout of every fixed benchmark job.

    python3 perfbench/regen_golden.py

Run this only at a commit that claims no change to any output: the golden
records are what later commits are checked against.  The seeded
``property-test`` job is checked by its invariants instead (worker.py).
Takes about ten seconds.
"""

from __future__ import annotations

import json
import os
import sys

import worker


def main():
    cli = worker.import_scalg()
    records = {}
    for name, wl in worker.load_json("workloads.json").items():
        for argv in wl["jobs"]:
            if worker.is_seeded(argv):
                continue
            code, out, secs, err = worker.run_job(cli, argv, worker.DEADLINE_S)
            if err:
                raise SystemExit("%s raised %s" % (worker.job_key(argv), err))
            records[worker.job_key(argv)] = {
                "exit": code,
                "sha256": worker.digest(out),
                "bytes": len(out.encode("utf-8")),
                # small outputs are kept verbatim so a mismatch can be read
                "stdout": out if len(out) <= 4096 else None,
            }
            print("%-12s exit %d %8d bytes %7.2f s  %s"
                  % (name, code, len(out), secs, worker.job_key(argv)), flush=True)
    path = os.path.join(worker.HERE, "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
