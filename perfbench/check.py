"""Output checker: compares each job's JSON report with the generator's references.

A report passes when its keys appear in the documented order, every
wordlength pattern is within ``TOL`` of the exact pair-route reference,
resolution, strength, verdicts and assignment lists match, spectra have the
right labels and Parseval-consistent patterns, and reconstructed designs
equal the generated run multiset.  Byte identity across reruns is checked by
the caller from output digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

import reference

#: The package's cross-route tolerance; a pattern entry farther than this from
#: the exact reference, beyond the rounding of its 12-significant-digit
#: rendering, is wrong.
TOL = 1e-8
RENDER_REL = 5e-12

DESIGN_KEYS = ["path", "k", "sizes", "n_runs"]
KEYS = {
    "jchar": ["design", "groups", "algorithm", "n_runs", "values"],
    "reconstruct": ["groups", "n_runs", "counts"],
    "gwlp": ["design", "algorithm", "groups", "gwlp", "resolution", "strength", "tolerance"],
    "invariance": [
        "design", "assignments", "gwlps", "margin_gwlp", "max_deviation_by_j",
        "max_deviation", "tolerance", "invariant", "witness", "resolution", "strength",
    ],
    "compare": ["first", "second", "verdict", "index", "tolerance"],
}
WITNESS_KEYS = ["g", "first_assignment", "other_assignment", "first_value", "other_value"]


def digest(path) -> str:
    """SHA-256 of a file's bytes; empty when the file cannot be read."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return ""


class Report:
    """Errors found in one output and the largest pattern deviation seen."""

    def __init__(self):
        self.errors: list[str] = []
        self.max_abs_err = 0.0
        self.patterns = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def keys(self, obj, expected, where: str) -> None:
        got = list(obj) if isinstance(obj, dict) else None
        self.expect(got == expected, f"{where}: keys {got} != {expected}")

    def pattern(self, values, data, where: str) -> None:
        exact = reference.gwlp_exact(data.scaled_gwlp, data.n_runs)
        if not isinstance(values, list) or len(values) != len(exact):
            self.errors.append(f"{where}: pattern {values!r} has the wrong length")
            return
        errs = [abs(float(v) - float(a)) for v, a in zip(values, exact)]
        self.patterns += 1
        self.max_abs_err = max(self.max_abs_err, *errs)
        bad = [e for e, a in zip(errs, exact) if not e <= TOL + RENDER_REL * abs(float(a))]
        self.expect(not bad, f"{where}: pattern off the reference by {max(errs):.3g}")


def _summary(report: Report, doc, job, data, path: str) -> None:
    report.keys(doc, DESIGN_KEYS + (["symbols"] if job.kind == "jchar" else []), "design")
    expected = [path, len(data.shape.sizes), list(data.shape.sizes), data.n_runs]
    report.expect([doc.get(k) for k in DESIGN_KEYS] == expected, f"design summary {doc!r}")


def _labels(alphabets) -> list[str]:
    joiner = "" if all(len(sym) == 1 for a in alphabets for sym in a) else ","
    comps = reference.yates_components([len(a) for a in alphabets])
    return [joiner.join(alphabets[i][c] for i, c in enumerate(row)) for row in comps]


def _check_jchar(report: Report, doc, job, plan) -> None:
    data = plan.designs[job.designs[0]]
    _summary(report, doc["design"], job, data, job.argv[1])
    report.expect(doc["design"].get("symbols") == data.alphabets, "symbols differ")
    report.expect(doc["groups"] == list(job.groups), f"groups {doc['groups']}")
    report.expect(doc["algorithm"] == "factorized", f"algorithm {doc['algorithm']}")
    report.expect(doc["n_runs"] == data.n_runs, f"n_runs {doc['n_runs']}")
    values = doc["values"]
    labels = _labels(data.alphabets)
    if len(values) != len(labels):
        report.errors.append(f"{len(values)} spectrum entries, want {len(labels)}")
        return
    report.keys(values[0], ["g", "re", "im"], "values[0]")
    report.expect([v["g"] for v in values] == labels, "element labels out of Yates order")
    power = np.array([v["re"] ** 2 + v["im"] ** 2 for v in values])
    weights = (reference.yates_components(data.shape.sizes) != 0).sum(axis=1)
    k = len(data.shape.sizes)
    pattern = np.bincount(weights, weights=power, minlength=k + 1) / data.n_runs**2
    report.pattern(pattern.tolist(), data, "spectrum pattern")


def _check_reconstruct(report: Report, doc, job, plan) -> None:
    data = plan.designs[job.designs[0]]
    report.expect(doc["groups"] == list(job.groups), f"groups {doc['groups']}")
    report.expect(doc["n_runs"] == data.n_runs, f"n_runs {doc['n_runs']}")
    counts = doc["counts"]
    if counts:
        report.keys(counts[0], ["run", "multiplicity"], "counts[0]")
    got = {tuple(c["run"]): c["multiplicity"] for c in counts}
    want = data.multiset()
    report.expect(len(got) == len(counts), "duplicate runs in the reconstruction")
    missing = len(want.keys() - got.keys())
    extra = len(got.keys() - want.keys())
    wrong = sum(1 for run in want.keys() & got.keys() if got[run] != want[run])
    report.expect(
        (missing, extra, wrong) == (0, 0, 0),
        f"reconstruction differs: {missing} runs missing, {extra} extra, {wrong} miscounted",
    )


def _check_gwlp(report: Report, doc, job, plan) -> None:
    data = plan.designs[job.designs[0]]
    _summary(report, doc["design"], job, data, job.argv[1])
    algorithm = "dense" if job.groups else "margin"
    report.expect(doc["algorithm"] == algorithm, f"algorithm {doc['algorithm']}")
    report.expect(doc["groups"] == (list(job.groups) if job.groups else None), "groups")
    report.pattern(doc["gwlp"], data, "gwlp")
    resolution, strength = reference.resolution_strength(data.scaled_gwlp)
    report.expect([doc["resolution"], doc["strength"]] == [resolution, strength],
                  f"resolution/strength {doc['resolution']}/{doc['strength']}")


def _check_invariance(report: Report, doc, job, plan) -> None:
    data = plan.designs[job.designs[0]]
    _summary(report, doc["design"], job, data, job.argv[1])
    per_factor = [reference.abelian_literals(s) for s in data.shape.sizes]
    want = sorted(",".join(combo) for combo in itertools.product(*per_factor))
    assignments = doc["assignments"]
    report.expect(sorted(assignments) == want, f"{len(assignments)} assignments, want {len(want)}")
    report.expect(len(doc["gwlps"]) == len(assignments), "one pattern per assignment")
    for i, pattern in enumerate(doc["gwlps"]):
        report.pattern(pattern, data, f"gwlps[{i}]")
    report.pattern(doc["margin_gwlp"], data, "margin_gwlp")
    report.expect(len(doc["max_deviation_by_j"]) == len(data.shape.sizes) + 1, "deviation length")
    report.expect(doc["tolerance"] == TOL, f"tolerance {doc['tolerance']}")
    report.expect(doc["max_deviation"] <= TOL, f"max_deviation {doc['max_deviation']}")
    report.expect(doc["invariant"] is True, "not invariant")
    resolution, strength = reference.resolution_strength(data.scaled_gwlp)
    report.expect([doc["resolution"], doc["strength"]] == [resolution, strength],
                  f"resolution/strength {doc['resolution']}/{doc['strength']}")
    witness = doc["witness"]
    if witness is None:
        return
    report.keys(witness, WITNESS_KEYS, "witness")
    report.expect(witness["first_assignment"] == assignments[0], "witness first assignment")
    report.expect(witness["other_assignment"] in assignments, "witness other assignment")
    labels = _labels(data.alphabets)
    if witness["g"] not in labels:
        report.errors.append(f"witness label {witness['g']!r} is not an element")
        return
    element = reference.yates_components(data.shape.sizes)[labels.index(witness["g"])]
    for key, literal in (("first_value", "first_assignment"), ("other_value", "other_assignment")):
        value = witness[key]
        report.keys(value, ["re", "im"], f"witness {key}")
        want_value = reference.character_sum(
            data.runs, data.mult, witness[literal].split(","), element
        )
        got = complex(value["re"], value["im"])
        report.expect(abs(got - want_value) <= 1e-9 * data.n_runs, f"witness {key} {got}")


def _check_compare(report: Report, doc, job, plan) -> None:
    first, second = (plan.designs[name] for name in job.designs)
    for key, data, path in (("first", first, job.argv[1]), ("second", second, job.argv[2])):
        report.keys(doc[key], ["path", "gwlp"], key)
        report.expect(doc[key]["path"] == path, f"{key} path")
        report.pattern(doc[key]["gwlp"], data, f"{key} gwlp")
    verdict, index = reference.aberration(first.scaled_gwlp, second.scaled_gwlp)
    report.expect([doc["verdict"], doc["index"]] == [verdict, index],
                  f"verdict {doc['verdict']}/{doc['index']}, want {verdict}/{index}")


CHECKS = {
    "jchar": _check_jchar,
    "reconstruct": _check_reconstruct,
    "gwlp": _check_gwlp,
    "invariance": _check_invariance,
    "compare": _check_compare,
}


def check_output(job, plan, text: str) -> Report:
    """Check one job's report text against the plan's references."""
    report = Report()
    if not text.endswith("\n"):
        report.errors.append("report does not end with a newline")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        report.errors.append(f"not JSON: {exc}")
        return report
    report.keys(doc, KEYS[job.kind], job.kind)
    try:
        CHECKS[job.kind](report, doc, job, plan)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        report.errors.append(f"malformed {job.kind} report: {exc!r}")
    return report
