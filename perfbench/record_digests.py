"""Record the CSV SHA-256 of the CLI workloads for a range of seeds.

The benchmark checks each run's CSV against the digest recorded here for
its (workload, seed): the CLI promises byte-identical output for the same
flags and seed, so a digest recorded at one commit holds at every later
commit that keeps that promise.  A seed that already has a digest must
reproduce it.  Run from the repository root::

    python3 perfbench/record_digests.py 0 24    # seeds 0..23
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, "src")
import job  # noqa: E402  (needs src/ on the path)


def main() -> int:
    first, stop = int(sys.argv[1]), int(sys.argv[2])
    path = os.path.join(run.HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        digests = json.load(fh)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    env = run.child_env()
    for seed in range(first, stop):
        for workload in ("sweep-canonical", "learn-daily"):
            if workload == "learn-daily":
                job.write_feed(seed)
            result = run.run_job(workload, seed, 0, env)
            if workload == "learn-daily":
                os.remove(job.feed_path(seed))
            known = digests.get(workload, {}).get(str(seed))
            if result["mismatches"] or "error" in result or known not in (None, result["sha256"]):
                print(f"{workload} seed {seed}: {result.get('error')} {result['mismatches']} "
                      f"digest {result.get('sha256')} recorded {known}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = result["sha256"]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(workload, seed, result["sha256"], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
