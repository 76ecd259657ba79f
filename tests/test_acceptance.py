"""Acceptance suite: each criterion at its stated tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import FIXTURES, all_assignments, random_design, traced, yates_elements
from wordlength import (
    Design,
    enumerate_structures,
    gwlp_char,
    gwlp_margin,
    j_characteristics,
    parse_structure,
    projector_norms,
    reconstruct,
)
from wordlength.groups import character_table
from wordlength.kron import build_projector
from wordlength.spectra import assignment_character_table

Z4 = parse_structure("4")
V = parse_structure("2x2")
ALPHABET = "0abc"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def paper_index(label: str) -> int:
    index = 0
    for ch in label:
        index = index * 4 + ALPHABET.index(ch)
    return index


@pytest.fixture(scope="module")
def random_suite():
    """200 random designs: k <= 4, s_i in {2,3,4,6,8,9,12}, N <= 60, mult 1-3."""
    rng = np.random.default_rng(2001)
    return [random_design(rng) for _ in range(200)]


def test_criterion_1_table1_reproduction(paper_design):
    with criterion(1, "Table-1 reproduction"):
        start = time.perf_counter()
        table = json.loads((FIXTURES / "table1.json").read_text(encoding="utf-8"))
        jz = j_characteristics(paper_design, [Z4] * 3).values
        jv = j_characteristics(paper_design, [V] * 3).values
        listed = set()
        for label, entry in table["values"].items():
            index = paper_index(label)
            listed.add(index)
            expected_z4 = complex(entry["Z4"]["re"], entry["Z4"]["im"])
            expected_v = complex(entry["V"]["re"], entry["V"]["im"])
            assert abs(jz[index] - expected_z4) < 1e-9, label
            assert abs(jv[index] - expected_v) < 1e-9, label
        assert len(listed) == 28
        for index in set(range(64)) - listed:
            assert abs(jz[index]) < 1e-9 and abs(jv[index]) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_gwlp_reproduction(paper_design):
    with criterion(2, "GWLP (0,0,3) under all 8 assignments and margins"):
        patterns = [gwlp_margin(paper_design)]
        assignments = list(itertools.product([Z4, V], repeat=3))
        assert len(assignments) == 8
        for assignment in assignments:
            jchar = j_characteristics(paper_design, assignment)
            patterns.append(gwlp_char(jchar))
        for pattern in patterns:
            assert pattern[0] == 1.0
            for j, expected in zip((1, 2, 3), (0.0, 0.0, 3.0)):
                assert abs(pattern[j] - expected) < 1e-9
        for j in range(4):
            column = [p[j] for p in patterns]
            assert max(column) - min(column) < 1e-9


def test_criterion_3_invariance_property_suite(random_suite):
    with criterion(3, "Theorem-2 suite: 200 random designs, all assignments"):
        start = time.perf_counter()
        for design in random_suite:
            margin = gwlp_margin(design)
            for assignment in all_assignments(design):
                char = gwlp_char(j_characteristics(design, assignment))
                deviation = max(
                    abs(a - b) for a, b in zip(char.values, margin.values)
                )
                assert deviation < 1e-8, (design.sizes, deviation)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_projector_oracle():
    with criterion(4, "projector oracle at s <= 64"):
        rng = np.random.default_rng(2002)
        checked = 0
        while checked < 50:
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4))
            s, k = design.space_size, design.k
            if s > 64:
                continue
            checked += 1
            counts = design.dense_counts()
            norms = projector_norms(design)
            sizes = design.sizes
            # Per-element nonidentity masks over the factors.
            masks = np.zeros(s, dtype=np.int64)
            stride = s
            indices = np.arange(s)
            for i, size in enumerate(sizes):
                stride //= size
                masks |= ((indices // stride) % size != 0).astype(np.int64) << i
            for assignment in all_assignments(design):
                u = assignment_character_table(assignment) / math.sqrt(s)
                uo = u @ counts
                chi = j_characteristics(design, assignment).values
                for mask in range(1 << k):
                    kinds = ["Q" if mask >> i & 1 else "P" for i in range(k)]
                    explicit = s * np.linalg.norm(build_projector(kinds, sizes) @ uo) ** 2
                    closed_form = s * norms[mask]
                    chi_sum = float((np.abs(chi[masks == mask]) ** 2).sum())
                    assert abs(explicit - closed_form) < 1e-9
                    assert abs(chi_sum - closed_form) < 1e-9


def test_criterion_5_reconstruction(paper_design, random_suite):
    with criterion(5, "reconstruction round trip"):
        designs = [paper_design] + random_suite[:100]
        for design in designs:
            for assignment in all_assignments(design):
                jchar = j_characteristics(design, assignment)
                assert reconstruct(jchar) == dict(design.counts)


def test_criterion_6_character_table_laws():
    with criterion(6, "character-table laws for orders <= 16"):
        for order in range(1, 17):
            for structure in enumerate_structures(order):
                h = character_table(structure)
                s = structure.order
                assert np.abs(h.conj().T @ h - s * np.eye(s)).max() < 1e-9
                assert np.abs(h @ h.conj().T - s * np.eye(s)).max() < 1e-9
                assert np.abs(h[0] - 1).max() < 1e-9
                assert np.abs(h[:, 0] - 1).max() < 1e-9
                digits, index = yates_elements(structure.cyclic_orders)
                target = index(digits[:, None] + digits[None])
                assert np.abs(h[:, None] * h[None] - h[target]).max() < 1e-9


def test_criterion_7_parseval(paper_design, random_suite):
    with criterion(7, "Parseval identity"):
        jchar = j_characteristics(paper_design, [Z4] * 3)
        total = sum(gwlp_char(jchar).raw)
        assert abs(total - 4.0) < 1e-9
        for design in random_suite:
            expected = (
                design.space_size
                / design.n_runs**2
                * sum(m * m for m in design.counts.values())
            )
            assignment = all_assignments(design)[0]
            pattern = gwlp_char(j_characteristics(design, assignment))
            assert abs(sum(pattern.raw) - expected) <= 1e-8 * max(1.0, expected)


@pytest.mark.memory_bound
def test_criterion_8_performance():
    with criterion(8, "performance: factorized 4^8, dense match, margin 12^6"):
        rng = np.random.default_rng(2003)

        # Factorized transform at s = 4^8 = 65536 in under a second.
        design8 = random_design(
            rng, max_k=8, sizes_pool=(4,), max_distinct=64, max_mult=2
        )
        while design8.k != 8:
            design8 = random_design(
                rng, max_k=8, sizes_pool=(4,), max_distinct=64, max_mult=2
            )
        assignment8 = tuple([Z4] * 8)
        start = time.perf_counter()
        fact = j_characteristics(design8, assignment8)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"factorized transform took {elapsed:.3f}s"
        assert fact.values[0] == design8.n_runs

        # Dense and factorized agree at s = 4096.
        design6 = random_design(rng, max_k=6, sizes_pool=(4,), max_distinct=40)
        while design6.k != 6:
            design6 = random_design(rng, max_k=6, sizes_pool=(4,), max_distinct=40)
        assignment6 = tuple([Z4] * 6)
        dense = j_characteristics(design6, assignment6, "dense")
        fact6 = j_characteristics(design6, assignment6, "factorized")
        assert np.abs(dense.values - fact6.values).max() < 1e-9

        # Margin-route GWLP at k = 6, s_i = 12 (s ~ 3e6) without densifying.
        sizes = (12,) * 6
        levels = tuple(tuple(str(j) for j in range(12)) for _ in range(6))
        counts = {
            tuple(int(rng.integers(0, 12)) for _ in range(6)): int(rng.integers(1, 4))
            for _ in range(200)
        }
        big = Design(levels, counts)
        assert big.space_size == 12**6
        start = time.perf_counter()
        pattern, peak = traced(lambda: gwlp_margin(big))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"margin route took {elapsed:.1f}s"
        dense_bytes = big.space_size * 16
        assert peak < dense_bytes / 4, f"peak allocation {peak} bytes"
        assert pattern[0] == 1.0
