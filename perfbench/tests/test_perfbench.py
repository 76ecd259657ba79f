"""Tests of the benchmark's own parts: generator, references, checker, tracer.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests -q`` from the
repository root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import check
import gen
import probe
import reference
import run
import tracer
import wordlength
import wordlength.cli as cli

ROOT = Path(__file__).resolve().parents[2]

# The 16-run strength-2 array of four-level factors (runs as rows).
PAPER_OA = [
    (0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 2), (1, 1, 0), (1, 2, 3), (1, 3, 1),
    (2, 0, 1), (2, 1, 3), (2, 2, 0), (2, 3, 2), (3, 0, 3), (3, 1, 2), (3, 2, 1), (3, 3, 0),
]


def test_generator_is_deterministic_per_seed(tmp_path):
    def files(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        plan = gen.generate("spectrum_roundtrip", seed, workdir)
        return {p.name: p.read_bytes() for p in workdir.iterdir()}, plan

    first, plan_a = files(7, "a")
    again, plan_b = files(7, "b")
    other, _ = files(8, "c")
    assert first == again
    assert plan_a.jobs == plan_b.jobs
    assert [d.scaled_gwlp for d in plan_a.designs.values()] == [
        d.scaled_gwlp for d in plan_b.designs.values()
    ]
    assert other.keys() == first.keys() and other != first


def test_pair_reference_matches_known_pattern_and_margin_route():
    runs = np.array(PAPER_OA)
    assert reference.gwlp_scaled(runs, np.ones(16, dtype=int), (4, 4, 4)) == [256, 0, 0, 768]
    rng = np.random.default_rng(3)
    for sizes in [(2, 3, 4, 6, 2, 3), (4, 4, 4, 2), (3,) * 5]:
        data = gen.make_design(gen.Shape("x", sizes, 40, 60), rng)
        design = wordlength.Design(
            tuple(tuple(a) for a in data.alphabets),
            {tuple(int(r) for r in run): int(m) for run, m in zip(data.runs, data.mult)},
        )
        exact = reference.gwlp_exact(
            reference.gwlp_scaled(data.runs, data.mult, sizes), data.n_runs)
        margin = wordlength.gwlp_margin(design)
        assert max(abs(float(a) - b) for a, b in zip(exact, margin.raw)) < 1e-9


def test_abelian_literals_match_package_enumeration():
    for order in (1, 2, 4, 6, 8, 9, 12, 16):
        want = [st.literal() for st in wordlength.enumerate_structures(order)]
        assert sorted(reference.abelian_literals(order)) == sorted(want)


@pytest.fixture
def small_plan(tmp_path, monkeypatch):
    """A tiny plan with one job of every kind, run through the real CLI."""
    rng = np.random.default_rng(5)
    shapes = [gen.Shape("a", (4, 4, 2), 20, 30, True), gen.Shape("b", (4, 4, 2), 20, 30, True)]
    designs = {}
    for shape in shapes:
        data = gen.make_design(shape, rng)
        (tmp_path / f"{shape.name}.txt").write_text(gen.design_text(data, "t", rng))
        data.scaled_gwlp = reference.gwlp_scaled(data.runs, data.mult, shape.sizes)
        designs[shape.name] = data
    groups = ("4", "2x2", "2")
    jobs = [
        gen.Job("jchar", "jchar", ("jchar", "a.txt", "--groups", ",".join(groups), "--json",
                                   "--output", "a.spectrum.json"), "a.spectrum.json", ("a",), groups),
        gen.Job("reconstruct", "reconstruct", ("reconstruct", "a.spectrum.json", "--json",
                                               "--output", "a.rec.json"), "a.rec.json", ("a",), groups),
        gen.Job("gwlp", "gwlp", ("gwlp", "a.txt", "--json", "--output", "a.gwlp.json"),
                "a.gwlp.json", ("a",)),
        gen.Job("invariance", "invariance", ("invariance", "a.txt", "--groups", "all", "--json",
                                             "--output", "a.inv.json"), "a.inv.json", ("a",)),
        gen.Job("compare", "compare", ("compare", "a.txt", "b.txt", "--json", "--output",
                                       "ab.json"), "ab.json", ("a", "b")),
    ]
    monkeypatch.chdir(tmp_path)
    for job in jobs:
        assert cli.main(list(job.argv)) == 0
    plan = gen.Plan("test", 0, designs, jobs, jobs[0], 1.0)
    return plan, {job.id: (job, (tmp_path / job.output).read_text()) for job in jobs}


def test_checker_accepts_real_outputs(small_plan):
    plan, outputs = small_plan
    for job, text in outputs.values():
        report = check.check_output(job, plan, text)
        assert report.errors == [], job.id
    assert report.max_abs_err < check.TOL


def test_checker_rejects_perturbed_pattern(small_plan):
    plan, outputs = small_plan
    job, text = outputs["gwlp"]
    doc = json.loads(text)
    doc["gwlp"][2] += 1e-6
    assert check.check_output(job, plan, json.dumps(doc) + "\n").errors
    job, text = outputs["invariance"]
    doc = json.loads(text)
    doc["margin_gwlp"][1] += 1e-6
    assert check.check_output(job, plan, json.dumps(doc) + "\n").errors


def test_checker_rejects_dropped_run(small_plan):
    plan, outputs = small_plan
    job, text = outputs["reconstruct"]
    doc = json.loads(text)
    doc["counts"].pop(3)
    assert check.check_output(job, plan, json.dumps(doc) + "\n").errors


def test_checker_rejects_reordered_key(small_plan):
    plan, outputs = small_plan
    job, text = outputs["gwlp"]
    doc = json.loads(text)
    doc = {"strength": doc.pop("strength"), **doc}
    assert check.check_output(job, plan, json.dumps(doc) + "\n").errors


def test_self_times_subtract_union_of_children():
    # root 0-100 with children a 10-40, b 35-60 (overlapping a), c 95-120
    # (clipped at the root's end); a has child a1 15-25.
    starts = [0, 10, 35, 95, 15]
    ends = [100, 40, 60, 120, 25]
    parents = [-1, 0, 0, 0, 1]
    assert tracer.self_times(starts, ends, parents) == [45, 20, 25, 25, 10]


def test_tracer_spans_account_for_a_job(small_plan):
    plan, outputs = small_plan
    trace = tracer.Tracer()
    original = cli.main
    trace.install()
    try:
        trace.job = 0
        assert cli.main(list(outputs["invariance"][0].argv)) == 0
    finally:
        trace.uninstall()
    assert cli.main is original
    summary = tracer.summarize(trace, [1e9])
    names = [trace.names[i] for i in trace.spans.names]
    assert names[0] == "cli.main" and trace.spans.parents[0] == -1
    # (4, 4, 2) has 2 * 2 * 1 assignments; the witness transforms one again.
    assert summary["spectra.j_characteristics.calls"] == 5
    assert summary["spectra.j_characteristics.useful_ratio"] == pytest.approx(4 / 5)
    assert summary["design.margins.calls"] == 2**3
    total = sum(summary[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total == pytest.approx(summary["cli.main.s"])


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 41)]
    value, percentile = run.tail(values)
    assert percentile == 75.0
    assert 30.0 < value < 31.0
    assert sum(v > value for v in values) == run.TAIL_SAMPLES


def test_quantile_is_a_smooth_order_statistic():
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert run.quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    # Two equal-sized modes: the estimate sits between them, not on either.
    assert 1.0 < run.quantile([1.0] * 10 + [2.0] * 10, 0.5) < 2.0


def test_probe_correction_scales_to_the_reference_speed():
    assert probe.corrected(0.3, probe.REFERENCE_S) == pytest.approx(0.3)
    # A host running the probe 1.5x slower ran the job 1.5x slower too.
    assert probe.corrected(0.3, 1.5 * probe.REFERENCE_S) == pytest.approx(0.2)
    assert probe.Probe().time() > 0


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
