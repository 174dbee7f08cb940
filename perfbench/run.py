"""cuspwave benchmark: drive the `cuspwave` CLI from outside, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --smoke

Every job is a fresh interpreter running perfbench/job.py, because users run
one CLI command per process and the propagator table cache is per process.
Jobs run back to back (a closed loop with one client) while the next one
is expected to end within S seconds of the start, set-up included.  Each
job's output goes through the workload's correctness gate.  With --trace 0
the last stdout line is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with --trace 1 untraced and traced jobs alternate and it
holds the per-layer metrics.  Metric meanings are in perfbench/README.md.
--smoke runs every workload at a tiny size in both modes and checks that
every named metric is emitted.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
# a run must end within 180 s: no job starts later than this after the
# workload's start, and none outlives it
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402
import spans  # noqa: E402


def _fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def _job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # one process on one core; BLAS threads would contend with it
    env.update({var: "1" for var in BLAS_VARS})
    return env


def environment():
    """What every result is recorded with."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "sympy", "mpmath")},
        "blas_threads": {var: "1" for var in BLAS_VARS},
        "git_commit": commit,
    }


def _spawn(cmd, cwd, env, out, err, deadline):
    """Run one child to completion; kill it if it would outlive the deadline."""
    with open(out, "w") as fo, open(err, "w") as fe:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fo, stderr=fe)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_job(wl, wdir, index, traced, env, deadline):
    """One fresh-interpreter job: timings, peak RSS, gate, and its trace."""
    jdir = wdir / ("job%03d" % index)
    jdir.mkdir()
    result, trace = jdir / "result.json", jdir / "trace.json"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "job.py"), str(result)]
    if traced:
        cmd.append(str(trace))
    cmd += ["--"] + wl.argv(str(jdir / "out"))
    launched = time.monotonic()
    rc = _spawn(cmd, jdir, env, jdir / "stdout.txt", jdir / "stderr.txt",
                deadline)
    job = {"index": index, "traced": traced, "exit": rc, "ok": False}
    if rc == 0 and result.exists():
        res = json.loads(result.read_text())
        job.update(setup_s=res["imported"] - launched, job_s=res["job_s"],
                   peak_rss_mb=res["peak_rss_mb"], cli_rc=res["rc"])
        if res["rc"] == 0:
            try:
                check = wl.check(str(jdir / "out"))
            except (OSError, ValueError, KeyError) as exc:
                job["detail"] = "unreadable output: %r" % exc
            else:
                job.update(ok=check.ok, ref_err=check.ref_err,
                           band_err=check.band_err, detail=check.detail,
                           picard_iters=check.picard_iters)
        else:
            job["detail"] = "cuspwave exited %d" % res["rc"]
        if traced:
            job["trace"] = json.loads(trace.read_text())
            job["layers"] = spans.layer_metrics(job["trace"])
            job["layers"].update(spans.import_metrics(
                (jdir / "stderr.txt").read_text()))
    elif rc is None:
        job["detail"] = "killed at the run deadline"
    else:
        last = (jdir / "stderr.txt").read_text().strip().splitlines()[-1:]
        job["detail"] = "job process exited %d: %s" % (rc, "".join(last))
    shutil.rmtree(jdir)
    return job


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; return its settings, every job and the metrics."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    wl = WORKLOADS[name](smoke=smoke)
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    wl.prepare(str(wdir), random.Random(seed))
    env = _job_env()
    # Closed loop, one client: a job starts only if one more job as long as
    # the longest so far still ends within S seconds of the workload's
    # start.  The first job, and in trace mode the first of each kind,
    # always runs.
    jobs, longest = [], 0.0
    while time.monotonic() < deadline:
        began = time.monotonic()
        jobs.append(run_job(wl, wdir, len(jobs), trace and len(jobs) % 2 == 1,
                            env, deadline))
        longest = max(longest, time.monotonic() - began)
        kinds = {j["traced"] for j in jobs}
        if (len(kinds) == 1 + trace
                and time.monotonic() - start + longest > seconds):
            break

    failed = sum(1 for j in jobs if not j["ok"])
    done = [j for j in jobs if "job_s" in j]
    plain = [j for j in done if not j["traced"]]
    errors = [j for j in jobs if "ref_err" in j]

    def med(key, pool):
        return statistics.median(j[key] for j in pool) if pool else 0.0

    job_p50 = med("job_s", plain)
    metrics = {
        "setup_s": med("setup_s", plain),
        "job_s.p50": job_p50,
        "peak_rss_mb": med("peak_rss_mb", plain),
        "work_per_s": wl.work() / job_p50 if job_p50 else 0.0,
        "fail_ratio": failed / len(jobs),
        "ref_err": max((j["ref_err"] for j in errors), default=0.0),
        "band_err": max((j["band_err"] for j in errors), default=0.0),
    }
    traced = [j for j in done if j["traced"]]
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(j["layers"][key] for j in traced)
        metrics["semilinear.picard_iters"] = med("picard_iters", traced)
        metrics["trace.overhead_s"] = med("job_s", traced) - job_p50
        with open(WORK / ("trace_%s.json" % name), "w") as fh:
            json.dump([{"job": j["index"], "workload": name, **j["trace"]}
                       for j in traced], fh)
    for j in jobs:
        j.pop("trace", None)
    tail = _tail([j["job_s"] for j in plain])
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "work_unit": wl.work_unit,
            "work": wl.work(), "failed": failed, "job_s.tail": tail,
            "jobs": jobs, "metrics": metrics}


def _report(record, units):
    name, metrics = record["workload"], record["metrics"]
    for key, value in metrics.items():
        print("%s %s = %r %s" % (name, key, value, units.get(key, "")))
    tail = record["job_s.tail"]
    n = sum(1 for j in record["jobs"] if "job_s" in j and not j["traced"])
    if tail:
        print("%s job_s.tail = %r s (p%.0f of %d jobs)" % (name, tail[0], tail[1], n))
    else:
        print("%s job_s.tail = n/a (%d untraced jobs; needs at least 11)" % (name, n))
    for j in record["jobs"]:
        if not j["ok"]:
            print("%s job %d FAILED: %s" % (name, j["index"], j.get("detail")))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, both trace modes, check every metric name")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        _fail("unknown workload %r; choose from %s or all"
              % (args.workload, ", ".join(WORKLOADS)))
    if not (ROOT / "src" / "cuspwave" / "cli.py").exists():
        _fail("no cuspwave source under %s" % (ROOT / "src"))

    WORK.mkdir(parents=True, exist_ok=True)
    lock = open(WORK / "lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        _fail("another benchmark run holds %s; jobs run one at a time"
              % (WORK / "lock"), code=3)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    modes = (0, 1) if args.smoke else (args.trace,)
    seconds = 0.0 if args.smoke else (args.seconds or bench["run_seconds"])
    attempted, failed, emitted, missing = 0, 0, {}, []
    for name in names:
        for trace in modes:
            record = run_workload(name, args.seed, seconds, trace, args.smoke)
            record["env"] = env
            suffix = "_trace" if trace else ""
            with open(WORK / ("BENCH_%s%s.json" % (name, suffix)), "w") as fh:
                json.dump(record, fh, indent=1)
            _report(record, units)
            metrics = record["metrics"]
            attempted += len(record["jobs"])
            failed += record["failed"]
            wanted = layers if trace else e2e
            missing += ["%s:%s" % (name, k) for k in wanted if k not in metrics]
            for key in wanted:
                if key in metrics:
                    label = key if len(names) == 1 else "%s:%s" % (name, key)
                    emitted[label] = {"value": metrics[key], "unit": units[key]}
    if args.smoke:
        print("smoke: %s" % ("every metric emitted" if not missing
                             else "missing " + ", ".join(missing)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": emitted}))
    return 1 if args.smoke and (missing or failed) else 0


if __name__ == "__main__":
    sys.exit(main())
