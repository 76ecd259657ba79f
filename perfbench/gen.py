"""Seeded workload generator: design files, CLI jobs and their references.

Each workload has a fixed menu of design shapes (level sizes, distinct runs
``n`` and total runs ``N``), so every seed costs about the same; the seed only
chooses which cells are run, their multiplicities, their order in the file and
the structure assignments.  The same seed writes byte-identical files.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference


@dataclass(frozen=True)
class Shape:
    name: str
    sizes: tuple[int, ...]
    n: int  # distinct runs
    N: int  # total runs, counting multiplicities
    letters: bool = False  # symbols header with letters instead of a levels header


@dataclass
class DesignData:
    shape: Shape
    alphabets: list[list[str]]
    runs: np.ndarray  # (n, k) level indices
    mult: np.ndarray  # (n,) multiplicities
    scaled_gwlp: list[int] = field(default_factory=list)  # N^2 * A_j, exact

    @property
    def n_runs(self) -> int:
        return int(self.mult.sum())

    def multiset(self) -> dict[tuple[str, ...], int]:
        return {
            tuple(self.alphabets[i][int(r)] for i, r in enumerate(run)): int(m)
            for run, m in zip(self.runs, self.mult)
        }


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``kind`` selects the checker, ``designs`` its references."""

    id: str
    kind: str
    argv: tuple[str, ...]
    output: str
    designs: tuple[str, ...]
    groups: tuple[str, ...] = ()


@dataclass
class Plan:
    workload: str
    seed: int
    designs: dict[str, DesignData]
    jobs: list[Job]
    cold: Job  # the representative command timed as a fresh process
    nominal_cycle_s: float


# Each workload lists its shapes and which jobs run on them.  Nominal seconds
# cover one pass over the jobs plus its set-up and cold-CLI samples, roughly,
# on a 2-vCPU x86-64 host.  A run makes round(seconds / nominal) passes, so every
# run of a workload times the same jobs in the same proportions.
WORKLOADS: dict[str, dict] = {
    "spectrum_roundtrip": {
        "shapes": [
            Shape("s1", (4,) * 6, 64, 80, True),
            Shape("s2", (4,) * 6 + (2,), 96, 120, True),
            Shape("s3", (4,) * 7, 128, 160, True),
            Shape("s4", (4,) * 7 + (2,), 192, 240, True),
            Shape("s5", (4,) * 8, 256, 320, True),
        ],
        "roundtrip": ["s1", "s2", "s3", "s4", "s5"],
        "cold": "jchar-s3",
        "nominal_cycle_s": 3.6,
    },
    "pattern_routes": {
        "shapes": [
            # Character route under every assignment, plus one margin route each.
            Shape("i1", (4,) * 7, 128, 160),
            Shape("i2", (8, 8, 4, 4, 4), 128, 160),
            Shape("i3", (16, 8, 4, 9), 128, 160),
            Shape("i4", (16, 4, 4, 4), 64, 96),
            Shape("i5", (4, 4, 4, 4, 4, 6), 96, 128),
            # Wide: the margin route's cost grows with the 2^k subsets.
            Shape("w1", (2, 3, 4, 5, 6, 7, 2, 3, 4, 2), 100, 128),
            Shape("w2", (12, 2, 3, 4, 2, 3, 2, 5, 2, 3, 2), 150, 192),
            Shape("w3", (2, 2, 3, 2, 3, 4, 2, 3, 2, 2, 5, 12), 100, 128),
            Shape("w4", (3, 4, 2, 6, 2, 3, 2, 5, 2, 4), 300, 384),
            Shape("w5", (12, 10, 9, 8, 7, 2, 2, 2, 2, 3), 200, 256),
            Shape("w6", (12, 10, 9, 8, 7, 2, 2, 2, 2, 3), 200, 256),
            # Tall: the cost grows with the distinct runs n, and files are large.
            Shape("t1", (4, 5, 6, 7, 8, 9), 5000, 20000),
            Shape("t2", (6, 8, 3, 10, 4, 12), 7500, 20000),
            Shape("t3", (2, 3, 4, 5, 6, 7, 8), 5000, 20000),
            Shape("t4", (3, 4, 6, 8, 10, 12), 5000, 20000),
            Shape("t5", (3, 4, 6, 8, 10, 12), 5000, 20000),
        ],
        "invariance": ["i1", "i2", "i3", "i4", "i5"],
        # A fixed assignment: the number of cyclic parts sets the dense
        # table's intermediate sizes, and with them the peak memory.
        "dense": {"i4": ("4x2x2", "2x2", "4", "2x2")},
        "gwlp": ["w1", "w2", "w3", "w4", "t1", "t2", "t3"],
        "compare": [("w5", "w6"), ("t4", "t5")],  # pairs share N
        "cold": "invariance-i2",
        "nominal_cycle_s": 5.3,
    },
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _alphabets(shape: Shape) -> list[list[str]]:
    if shape.letters:
        return [["0", *"abcdefghijklmnopqrstuvwxyz"[: s - 1]] for s in shape.sizes]
    return [[str(j) for j in range(s)] for s in shape.sizes]


def make_design(shape: Shape, rng: np.random.Generator) -> DesignData:
    s = math.prod(shape.sizes)
    cells = np.sort(rng.choice(s, shape.n, replace=False))
    runs = np.stack(np.unravel_index(cells, shape.sizes), axis=1)
    mult = rng.multinomial(shape.N - shape.n, np.full(shape.n, 1.0 / shape.n)) + 1
    return DesignData(shape, _alphabets(shape), runs, mult)


def design_text(data: DesignData, title: str, rng: np.random.Generator) -> str:
    """Design file: runs in seeded order; small multiplicities as repeated lines."""
    shape = data.shape
    if shape.letters:
        lines = ["symbols: " + " | ".join(" ".join(a) for a in data.alphabets)]
    else:
        lines = ["levels: " + " ".join(str(s) for s in shape.sizes)]
    body = []
    for run, m in zip(data.runs, data.mult):
        symbols = " ".join(data.alphabets[i][r] for i, r in enumerate(run))
        if m <= 4:
            body.extend([symbols] * int(m))
        else:
            body.append(f"{symbols} x{m}")
    order = rng.permutation(len(body))
    return "\n".join([f"# {title}", *lines, *(body[i] for i in order)]) + "\n"


def _klein_mix(sizes, rng: np.random.Generator) -> list[str]:
    """Half of the 4-level factors (seeded choice) get 2x2, the rest are cyclic."""
    fours = [i for i, s in enumerate(sizes) if s == 4]
    klein = set(rng.choice(fours, len(fours) // 2, replace=False).tolist())
    return ["2x2" if i in klein else str(s) for i, s in enumerate(sizes)]


def generate(workload: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's design files into ``workdir`` and return the plan."""
    spec = WORKLOADS[workload]
    rng = _rng(workload, seed)
    designs: dict[str, DesignData] = {}
    for shape in spec["shapes"]:
        data = make_design(shape, rng)
        title = f"perfbench {workload} seed {seed} design {shape.name}"
        (workdir / f"{shape.name}.txt").write_text(design_text(data, title, rng), encoding="utf-8")
        data.scaled_gwlp = reference.gwlp_scaled(data.runs, data.mult, shape.sizes)
        designs[shape.name] = data

    jobs: list[Job] = []
    for name in spec.get("roundtrip", []):
        groups = tuple(_klein_mix(designs[name].shape.sizes, rng))
        spectrum = f"{name}.spectrum.json"
        jobs.append(Job(f"jchar-{name}", "jchar",
                        ("jchar", f"{name}.txt", "--groups", ",".join(groups), "--json",
                         "--output", spectrum), spectrum, (name,), groups))
        out = f"{name}.reconstruct.json"
        jobs.append(Job(f"reconstruct-{name}", "reconstruct",
                        ("reconstruct", spectrum, "--json", "--output", out), out,
                        (name,), groups))
    for name in spec.get("invariance", []):
        out = f"{name}.invariance.json"
        jobs.append(Job(f"invariance-{name}", "invariance",
                        ("invariance", f"{name}.txt", "--groups", "all", "--json",
                         "--output", out), out, (name,)))
    for name, groups in spec.get("dense", {}).items():
        out = f"{name}.dense.json"
        jobs.append(Job(f"gwlp-dense-{name}", "gwlp",
                        ("gwlp", f"{name}.txt", "--groups", ",".join(groups), "--algorithm",
                         "dense", "--json", "--output", out), out, (name,), groups))
    for name in spec.get("gwlp", []):
        out = f"{name}.gwlp.json"
        jobs.append(Job(f"gwlp-{name}", "gwlp",
                        ("gwlp", f"{name}.txt", "--json", "--output", out), out, (name,)))
    for first, second in spec.get("compare", []):
        out = f"{first}-{second}.compare.json"
        jobs.append(Job(f"compare-{first}-{second}", "compare",
                        ("compare", f"{first}.txt", f"{second}.txt", "--json", "--output", out),
                        out, (first, second)))
    cold = next(job for job in jobs if job.id == spec["cold"])
    return Plan(workload, seed, designs, jobs, cold, spec["nominal_cycle_s"])
