"""Run a plan's CLI jobs back to back in this process (one closed-loop client).

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) lists the jobs as argv vectors relative to the
plan's directory.  The worker runs one warm-up pass, keeping a copy of each
job's first output (``<output>.first``) for the checker, and answers
``ready`` on its standard output.  It then reads one command per line from
its standard input and answers ``done`` after each:

* ``pass``: run every job once, recording per job its exit code, wall and
  CPU time, output digest, and the mean of the host-speed probe times taken
  right before and right after it (see ``probe.py``);
* ``trace``: the same with the tracer installed, then summarize the spans;
  the first traced pass's spans are written to the plan's span file;
* ``end``: write RESULT.json and exit.

CLI output never reaches the protocol stream: jobs write to ``--output``
files and the worker's ``sys.stdout`` is pointed at standard error.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from check import digest
from probe import Probe


def _run_job(cli, job) -> tuple[int, float, float]:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        # Looked up per call, so that the tracer's wrapper is the one called.
        code = cli.main(list(job["argv"]))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, time.perf_counter() - wall0, time.process_time() - cpu0


def _pass(cli, jobs, records, probe, tracer=None, keep_first=False) -> list[float]:
    """Run every job once; returns the job wall times."""
    walls = []
    before = probe.time()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        code, wall, cpu = _run_job(cli, job)
        after = probe.time()
        walls.append(wall)
        if keep_first and code == 0:
            shutil.copyfile(job["output"], job["output"] + ".first")
        records.setdefault(job["id"], []).append(
            [code, wall, cpu, digest(job["output"]), (before + after) / 2])
        before = after
    return walls


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, when its library exposes the query."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _peak_rss_kib() -> int:
    """High-water RSS of this process image.

    ``ru_maxrss`` survives ``execve`` on Linux, so in a freshly spawned
    worker it would still include the spawning process; ``VmHWM`` belongs
    to the current address space only.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _blas_version(np) -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


def main() -> int:
    plan_path, result_path = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr
    os.chdir(plan_path.parent)
    import numpy as np
    import wordlength.cli as cli

    jobs = plan["jobs"]
    probe = Probe()
    warmup: dict = {}
    _pass(cli, jobs, warmup, probe, keep_first=True)
    records: dict = {}
    tracer = tracing.Tracer()
    untraced, traced, summaries = [], [], []
    protocol.write("ready\n")
    for line in sys.stdin:
        command = line.strip()
        if command == "end":
            break
        if command == "pass":
            untraced.append(sum(_pass(cli, jobs, records, probe)))
        elif command == "trace":
            tracer.reset()
            tracer.install()
            try:
                walls = _pass(cli, jobs, records, probe, tracer)
            finally:
                tracer.uninstall()
            traced.append(sum(walls))
            summaries.append(tracing.summarize(tracer, walls))
            if len(summaries) == 1:
                tracing.write_spans(tracer, plan["spans"])
        else:
            raise SystemExit(f"worker: unknown command {command!r}")
        protocol.write("done\n")

    result = {
        "warmup": {key: runs[0] for key, runs in warmup.items()},
        "records": records,
        "untraced_s": untraced,
        "traced_s": traced,
        "summaries": summaries,
        "peak_rss_kib": _peak_rss_kib(),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "openblas": _blas_version(np),
        "python": sys.version.split()[0],
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
