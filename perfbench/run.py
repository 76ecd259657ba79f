"""Seeded CLI benchmark for wordlength, with an optional per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectrum_roundtrip --seed 1 --seconds 30 --trace 0

The generator writes the workload's design files for the seed into a work
directory under ``perfbench/.work``.  A fresh worker process then runs the
jobs through ``wordlength.cli.main`` back to back (one closed-loop client):
one warm-up pass, then timed passes.  Between passes, fresh interpreters
measure set-up (``import wordlength.cli``) and one cold CLI command.  Every
output is checked against exact references.  With ``--trace 1`` the worker instead alternates
untraced and traced passes and the per-layer metrics are reported.  Lines
starting with ``#`` describe the run; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

import check
import gen
import probe
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Whole-run limit; leaves room under a 180 s budget for cleanup.
DEADLINE_S = 165
TAIL_SAMPLES = 10
COLD_PER_PASS = 3

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cold_cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "render.element_label.calls": "count",
    "render.element_label.s": "s",
    "render.dumps.calls": "count",
    "render.dumps.s": "s",
    "render.dumps.bytes": "bytes",
    "render.self_s": "s",
    "spectra.reconstruct.s": "s",
    "spectra.reconstruct.cells": "count",
    "spectra.j_characteristics.calls": "count",
    "spectra.j_characteristics.useful_ratio": "ratio",
    "spectra.element_weights.calls": "count",
    "spectra.element_weights.s": "s",
    "spectra.gwlp_char.s": "s",
    "spectra.self_s": "s",
    "kron.factored_apply.calls": "count",
    "kron.factored_apply.s": "s",
    "kron.factored_apply.elements": "count",
    "kron.factored_apply.ops": "count",
    "kron.factored_apply.bytes": "bytes",
    "kron.kron_all.s": "s",
    "kron.self_s": "s",
    "groups.cyclic_character_table.calls": "count",
    "groups.enumerate_structures.calls": "count",
    "groups.self_s": "s",
    "design.parse_design.s": "s",
    "design.dense_counts.calls": "count",
    "design.dense_counts.s": "s",
    "design.margins.calls": "count",
    "design.margins.s": "s",
    "design.margins.runs_scanned": "count",
    "design.self_s": "s",
    "invariance.verify_invariance.s": "s",
    "invariance.gwlp_margin.calls": "count",
    "invariance.subset_norm.calls": "count",
    "invariance.subset_norm.s": "s",
    "invariance.projector_norms.self_s": "s",
    "invariance.compare_aberration.calls": "count",
    "invariance.self_s": "s",
    **{f"{layer}.errors": "count" for layer in tracer.LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "check.fail_ratio": "ratio",
    "check.max_abs_err": "abs",
}


class BenchError(Exception):
    """The benchmark could not run (missing program, worker crash, timeout)."""


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    One BLAS thread: OpenBLAS otherwise spins a second thread that doubles
    CPU time without lowering wall time here, and competes with the job on a
    small host.  A fixed hash seed keeps set and dict iteration identical
    across processes.
    """
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time budget")
    return left


def timed_process(argv, cwd, deadline, host: probe.Probe) -> tuple[float, float, int]:
    """Wall time of a fresh process, the mean probe time around it, and its exit code."""
    before = host.time()
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=_remaining(deadline))
    wall = time.perf_counter() - start
    after = host.time()
    if done.returncode:
        sys.stderr.write(done.stderr.decode(errors="replace"))
    return wall, (before + after) / 2, done.returncode


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    Jobs of different sizes, and fast and slow phases of the host, make the
    sample multimodal; a single order statistic then jumps between modes from
    run to run, while this estimate moves smoothly.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


def tail(values: list[float]) -> tuple[float, float]:
    """Estimate at the highest percentile with TAIL_SAMPLES samples beyond it."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return max(values), 100.0
    p = (n - TAIL_SAMPLES) / n
    return quantile(values, p), 100.0 * p


class Worker:
    """The warm worker process, driven one pass at a time over a pipe."""

    def __init__(self, plan: gen.Plan, workdir: Path, deadline: float):
        spec = {
            "spans": str(WORK / f"spans-{plan.workload}-{plan.seed}.tsv"),
            "jobs": [{"id": j.id, "argv": list(j.argv), "output": j.output} for j in plan.jobs],
        }
        (workdir / "plan.json").write_text(json.dumps(spec), encoding="utf-8")
        self.workdir = workdir
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "plan.json", "result.json"],
            cwd=workdir, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Worker":
        try:
            self._expect("ready")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()

    def _expect(self, word: str) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], _remaining(self.deadline))
        line = self.proc.stdout.readline() if ready else "(timed out)"
        if line.strip() != word:
            raise BenchError(f"worker answered {line.strip()!r}, expected {word!r}")

    def command(self, command: str) -> None:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchError(f"worker is gone: {exc}") from exc
        self._expect("done")

    def finish(self) -> dict:
        self.proc.stdin.write("end\n")
        self.proc.stdin.flush()
        code = self.proc.wait(timeout=_remaining(self.deadline))
        if code:
            raise BenchError(f"worker exited with {code}")
        return json.loads((self.workdir / "result.json").read_text(encoding="utf-8"))


def verify(plan: gen.Plan, workdir: Path, result: dict, extra_runs) -> dict:
    """Failures per execution: nonzero exit, wrong first output, or changed bytes."""
    attempted = failed = 0
    max_err = 0.0
    patterns = 0
    problems = []
    for job in plan.jobs:
        code, _, _, digest, _ = result["warmup"][job.id]
        first = workdir / (job.output + ".first")
        if code == 0 and first.is_file():
            report = check.check_output(job, plan, first.read_text(encoding="utf-8"))
            max_err = max(max_err, report.max_abs_err)
            patterns += report.patterns
            problems += [f"{job.id}: {e}" for e in report.errors]
            ok = not report.errors
        else:
            problems.append(f"{job.id}: warm-up exit code {code}, no output")
            ok = False
        runs = result["records"][job.id] + extra_runs.get(job.id, [])
        for run_code, _, _, run_digest, _ in runs:
            attempted += 1
            if not ok or run_code != 0 or run_digest != digest:
                failed += 1
                if ok and run_digest != digest:
                    problems.append(f"{job.id}: output bytes changed on rerun")
    return {"attempted": attempted, "failed": failed, "max_abs_err": max_err,
            "patterns": patterns, "problems": problems}


def end_to_end(plan: gen.Plan, workdir: Path, seconds: int, deadline, out) -> tuple[dict, dict]:
    """Timed passes, each followed by one set-up and COLD_PER_PASS cold-CLI samples.

    Interleaving spreads every metric's samples over the whole run, so that
    slow and fast phases of the host weigh alike on all of them.  Every time
    metric is computed from probe-corrected samples (see ``probe.py``).
    """
    cold_job = plan.cold
    cold_argv = [sys.executable, "-m", "wordlength.cli", *cold_job.argv]
    setup_argv = [sys.executable, "-c", "import wordlength.cli"]
    host = probe.Probe()
    setup, cold = [], []
    with Worker(plan, workdir, deadline) as worker:
        for _ in range(max(3, round(seconds / plan.nominal_cycle_s))):
            worker.command("pass")
            wall, probe_s, code = timed_process(setup_argv, ROOT, deadline, host)
            if code:
                raise BenchError("importing wordlength.cli failed")
            setup.append([wall, probe_s])
            for _ in range(COLD_PER_PASS):
                wall, probe_s, code = timed_process(cold_argv, workdir, deadline, host)
                cold.append([code, wall, 0.0, check.digest(workdir / cold_job.output), probe_s])
        result = worker.finish()
    # The cold runs wrote the same report as the worker, so they count as reruns.
    status = verify(plan, workdir, result, {cold_job.id: cold})
    runs = [run for job_runs in result["records"].values() for run in job_runs]
    walls = [probe.corrected(run[1], run[4]) for run in runs]
    cold_s = [probe.corrected(run[1], run[4]) for run in cold]
    setup_s = [probe.corrected(wall, probe_s) for wall, probe_s in setup]
    tail_s, tail_p = tail(walls)
    n = len(walls)
    metrics = {
        "jobs_per_s": (n / sum(walls), n),
        "job_p50_s": (quantile(walls, 0.5), n),
        "job_tail_s": (tail_s, n),
        "cold_cli_s": (quantile(cold_s, 0.5), len(cold)),
        "setup_s": (quantile(setup_s, 0.5), len(setup)),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024, 1),
        "fail_ratio": (status["failed"] / status["attempted"], status["attempted"]),
        "max_abs_err": (status["max_abs_err"], status["patterns"]),
    }
    probes = [run[4] for run in runs + cold] + [probe_s for _, probe_s in setup]
    out(f"# uncorrected medians: job {statistics.median(run[1] for run in runs):.6g} s, cold "
        f"{statistics.median(run[1] for run in cold):.6g} s, setup "
        f"{statistics.median(wall for wall, _ in setup):.6g} s; probe median "
        f"{statistics.median(probes) * 1e3:.4g} ms (reference {probe.REFERENCE_S * 1e3:g} ms)")
    cpu_share = sum(run[2] for run in runs) / sum(run[1] for run in runs)
    out(f"# job_tail_s is p{tail_p:.1f} of {n} jobs; CPU/wall over jobs {cpu_share:.3f}; "
        f"blas_threads={result['blas_threads']} numpy={result['numpy']} blas={result['openblas']}")
    for job_id, job_runs in result["records"].items():
        job_s = statistics.median(probe.corrected(r[1], r[4]) for r in job_runs)
        out(f"# job {job_id:28s} median {job_s:.4f} s over {len(job_runs)} runs")
    return metrics, status


def per_layer(plan: gen.Plan, workdir: Path, seconds: int, deadline, out) -> tuple[dict, dict]:
    """Alternating untraced and traced passes until ``seconds`` have passed."""
    stop = time.monotonic() + seconds
    with Worker(plan, workdir, deadline) as worker:
        while True:
            worker.command("pass")
            worker.command("trace")
            if time.monotonic() >= stop:
                break
        result = worker.finish()
    status = verify(plan, workdir, result, {})
    passes = result["summaries"]
    n = len(passes)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            metrics[name] = (statistics.median(p[name] for p in passes), n)
        elif name in passes[0]:
            metrics[name] = (passes[0][name], n)
    counts = [k for k, unit in PER_LAYER.items() if unit in ("count", "bytes")]
    repeat = all(p[k] == passes[0][k] for p in passes for k in counts if k in p)
    traced = statistics.median(result["traced_s"])
    metrics["trace.overhead_ratio"] = (traced / statistics.median(result["untraced_s"]), n)
    metrics["trace.accounted_ratio"] = (min(p["trace.accounted_ratio"] for p in passes), n)
    metrics["check.fail_ratio"] = (status["failed"] / status["attempted"], status["attempted"])
    metrics["check.max_abs_err"] = (status["max_abs_err"], status["patterns"])
    shares = ", ".join(
        f"{layer} {statistics.median(p[f'{layer}.self_s'] for p in passes) / traced:.1%}"
        for layer in tracer.LAYERS
    )
    out(f"# traced passes {n}, counts repeat across passes: {repeat}")
    out(f"# self-time shares of traced job wall: {shares}")
    return metrics, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exit that still stops the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (ROOT / "src" / "wordlength" / "cli.py").is_file():
        print(f"perfbench: no wordlength sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    lines = []
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        plan = gen.generate(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, status = measure(plan, workdir, args.seconds, deadline, lines.append)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {**END_TO_END, **PER_LAYER, "fail_ratio": "ratio", "max_abs_err": "abs"}
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={sys.version.split()[0]} nproc={os.cpu_count()}")
    for line in lines:
        print(line)
    for name, (value, n) in metrics.items():
        print(f"# {name:40s} {value:.6g} {units[name]} (n={n})")
    print(f"# run wall {time.monotonic() - started:.1f} s")
    for problem in status["problems"][:20]:
        print(f"# FAIL {problem}")
    reported = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": status["failed"] == 0,
        "attempted": status["attempted"],
        "failed": status["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
