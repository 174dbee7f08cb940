"""Run one cuspwave CLI command in this fresh interpreter and record its cost.

    python3 perfbench/job.py RESULT.json [TRACE.json] -- <cuspwave argv>

RESULT.json receives the monotonic clock reading right after
`import cuspwave.cli`, the seconds spent in `cuspwave.cli.main(argv)`, its
return code and the process's peak RSS.  With TRACE.json the public
functions of each module are wrapped first (see spans.py) and the spans
are written there when the command has finished.  The job runs pinned to
the highest-numbered CPU it may use.  The caller puts `src` on PYTHONPATH.
"""

import os
import time

# one job on one core; the other cores keep the parent and the system's tasks
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import cuspwave.cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv):
    sep = argv.index("--")
    paths, cli_argv = argv[:sep], argv[sep + 1:]
    tracer = None
    if len(paths) == 2:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = cuspwave.cli.main(cli_argv)
    job_s = time.perf_counter() - start
    result = {"imported": IMPORTED, "job_s": job_s, "rc": rc,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.dump(paths[1])
    with open(paths[0], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
