"""Set-up probe: a fresh process that gets ready for a workload.

    python3 blobbench/probe.py tables|campaign

Imports the program, builds the three system models and, for
``campaign``, spawns the jobs=2 warm worker pool and waits until both
workers answer.  Prints ``ready`` when done, then waits for its stdin
to close and shuts down cleanly.  ``run.py`` times spawn-to-``ready``.
"""

from __future__ import annotations

import os
import sys


def main(kind):
    from repro.backends.simulated import AnalyticBackend
    from repro.core import campaign, runner  # noqa: F401
    from repro.systems.catalog import make_model

    for system in ("dawn", "lumi", "isambard-ai"):
        AnalyticBackend(make_model(system))
    if kind == "campaign":
        from repro.core import workerpool
        from repro.dist import dispatcher  # noqa: F401

        pool = workerpool.get_pool(2)
        for future in [pool.submit(os.getpid) for _ in range(2)]:
            future.result(timeout=60)
    print("ready", flush=True)
    sys.stdin.read()
    if kind == "campaign":
        workerpool.shutdown_all()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
