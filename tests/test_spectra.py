"""Spectra: J-characteristics, reconstruction, and the character-route GWLP."""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from helpers import FIXTURES, all_assignments, oracle_gwlp, oracle_jchar, random_design
from wordlength import (
    GWLP,
    Design,
    InconsistentSpectrumError,
    ResourceLimitError,
    character_table,
    check_assignment,
    element_weights,
    gwlp_char,
    j_characteristics,
    parse_structure,
    reconstruct,
    relabel_levels,
    weight,
)
from wordlength.spectra import JCharVector

Z4 = parse_structure("4")
V = parse_structure("2x2")

ALPHABET = "0abc"


def paper_index(label: str) -> int:
    """Yates index of a Table-style element label like 'aab'."""
    index = 0
    for ch in label:
        index = index * 4 + ALPHABET.index(ch)
    return index


def load_table1():
    doc = json.loads((FIXTURES / "table1.json").read_text(encoding="utf-8"))
    table = {}
    for label, entry in doc["values"].items():
        table[label] = {
            key: complex(val["re"], val["im"]) for key, val in entry.items()
        }
    return table


def half_fraction() -> Design:
    """The even-parity half of the 2^3 full factorial."""
    runs = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    return Design((("0", "1"),) * 3, runs)


def full_factorial(sizes) -> Design:
    levels = tuple(tuple(str(j) for j in range(s)) for s in sizes)
    counts = {run: 1 for run in itertools.product(*(range(s) for s in sizes))}
    return Design(levels, counts)


class TestWeight:
    def test_identity(self):
        assert weight((Z4, Z4, Z4), 0) == 0

    def test_two_nonidentity(self):
        assert weight((Z4, V, Z4), (1, 0, 3)) == 2

    def test_all_nonidentity(self):
        assert weight((V, V, V), (1, 2, 3)) == 3

    def test_flat_index_agrees_with_components(self):
        structures = (Z4, parse_structure("3"), V)
        sizes = [4, 3, 4]
        for index in range(48):
            digits, rem = [], index
            for s in reversed(sizes):
                rem, r = divmod(rem, s)
                digits.append(r)
            digits.reverse()
            assert weight(structures, index) == weight(structures, tuple(digits))

    def test_element_weights_vectorized(self):
        structures = (Z4, parse_structure("3"), V)
        weights = element_weights(structures)
        assert weights.shape == (48,)
        assert all(weights[i] == weight(structures, i) for i in range(48))

    @pytest.mark.parametrize("literals", ["4,2x2,4,4,4,4,4", "16,8,4,9", "3,5,2x2"])
    def test_element_weights_count_nonzero_digits(self, literals):
        structures = [parse_structure(lit) for lit in literals.split(",")]
        orders = [st.order for st in structures]
        digits = np.unravel_index(np.arange(math.prod(orders)), orders)
        weights = element_weights(structures)
        assert weights.dtype == np.int64
        assert np.array_equal(weights, np.count_nonzero(np.stack(digits), axis=0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            weight((Z4,), 4)
        with pytest.raises(ValueError, match="component 4 out of range"):
            weight((Z4,), (4,))
        with pytest.raises(ValueError, match="2 components, expected 1"):
            weight((Z4,), (1, 0))
        with pytest.raises(ValueError):
            weight((Z4,), (4,))


class TestJCharacteristics:
    def test_identity_entry_is_n(self, paper_design):
        for assignment in ([Z4] * 3, [V] * 3):
            jchar = j_characteristics(paper_design, assignment)
            assert jchar.values[0] == 16

    def test_paper_values(self, paper_design):
        jz = j_characteristics(paper_design, [Z4] * 3)
        jv = j_characteristics(paper_design, [V] * 3)
        assert jz.values[paper_index("aaa")] == -6 - 2j
        assert jv.values[paper_index("aaa")] == 8
        assert jz.values[paper_index("bbb")] == 8
        assert jv.values[paper_index("ccc")] == 16

    def test_low_weight_entries_vanish(self, paper_design):
        # Strength 2: weight-1 and weight-2 entries are zero under both structures.
        for assignment in ([Z4] * 3, [V] * 3):
            jchar = j_characteristics(paper_design, assignment)
            weights = element_weights(tuple(assignment))
            low = (weights == 1) | (weights == 2)
            assert np.abs(jchar.values[low]).max() < 1e-9

    def test_dense_and_factorized_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4, 6))
            for assignment in all_assignments(design):
                dense = j_characteristics(design, assignment, "dense")
                fact = j_characteristics(design, assignment, "factorized")
                assert np.abs(dense.values - fact.values).max() < 1e-9

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4), max_distinct=8)
            for assignment in all_assignments(design):
                expected = oracle_jchar(design, assignment)
                got = j_characteristics(design, assignment).values
                assert np.abs(got - expected).max() < 1e-9

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4, 6), max_distinct=8)
            assignment = check_assignment(
                design, [st.literal() for st in all_assignments(design)[0]]
            )
            jchar = j_characteristics(design, assignment)
            orders = [st.order for st in assignment]
            for index in range(design.space_size):
                digits, rem = [], index
                for s, st in zip(reversed(orders), reversed(assignment)):
                    rem, r = divmod(rem, s)
                    digits.append(st.index_of_element(st.inverse(r)))
                digits.reverse()
                neg = 0
                for r, s in zip(digits, orders):
                    neg = neg * s + r
                assert jchar.values[neg] == pytest.approx(
                    jchar.values[index].conjugate(), abs=1e-9
                )

    def test_bounded_by_n(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4))
            assignment = all_assignments(design)[0]
            jchar = j_characteristics(design, assignment)
            assert np.abs(jchar.values).max() <= design.n_runs + 1e-9
            assert jchar.values[0] == design.n_runs

    def test_densification_cap(self):
        too_many_cells = Design((tuple("0123"),) * 11, {(0,) * 11: 1})  # 4^11 = 2^22 cells
        with pytest.raises(ResourceLimitError):
            j_characteristics(too_many_cells, [Z4] * 11)
        too_big_table = Design((tuple("0123"),) * 7, {(0,) * 7: 1})  # order 4^7 > 2^12
        with pytest.raises(ResourceLimitError):
            j_characteristics(too_big_table, [Z4] * 7, "dense")

    def test_assignment_validation(self, paper_design):
        with pytest.raises(ValueError):
            j_characteristics(paper_design, [Z4, Z4])
        with pytest.raises(ValueError):
            j_characteristics(paper_design, [Z4, Z4, parse_structure("3")])
        with pytest.raises(ValueError):
            j_characteristics(paper_design, [Z4] * 3, "quantum")


class TestReconstruct:
    def test_round_trip_paper(self, paper_design):
        for assignment in ([Z4] * 3, [V] * 3, [Z4, V, Z4]):
            jchar = j_characteristics(paper_design, assignment)
            assert reconstruct(jchar) == dict(paper_design.counts)

    def test_round_trip_random(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4, 6))
            for assignment in all_assignments(design):
                jchar = j_characteristics(design, assignment)
                assert reconstruct(jchar, assignment) == dict(design.counts)

    def test_all_ones_spectrum_is_single_identity_run(self):
        structures = (Z4, V)
        jchar = JCharVector(np.ones(16, dtype=np.complex128), 1, structures)
        assert reconstruct(jchar) == {(0, 0): 1}

    def test_spectrum_under_wrong_assignment_never_gives_the_design(self, paper_design):
        jchar = j_characteristics(paper_design, [V] * 3)
        try:
            counts = reconstruct(jchar, [Z4] * 3)
        except InconsistentSpectrumError:
            return
        assert counts != dict(paper_design.counts)

    def test_non_integer_spectrum_rejected(self):
        jchar = JCharVector(np.full(4, 0.5, dtype=np.complex128), 1, (Z4,))
        with pytest.raises(InconsistentSpectrumError):
            reconstruct(jchar, tol=1e-9)

    def test_negative_multiplicity_rejected(self):
        # chi of -e_1 under Z2: entries (-1, 1).
        jchar = JCharVector(np.array([-1.0, 1.0], dtype=np.complex128), 1, (parse_structure("2"),))
        with pytest.raises(InconsistentSpectrumError):
            reconstruct(jchar)

    @pytest.mark.parametrize(
        ("cells", "message"),
        [
            ([1, 0, 0.5, -1], "cell 2 reconstructs to (0.5"),
            ([1, 0, -1, 0.5], "cell 2 reconstructs to negative multiplicity -1"),
        ],
    )
    def test_first_bad_cell_is_named(self, cells, message):
        table = character_table(Z4).entries
        jchar = JCharVector(table @ np.array(cells, dtype=np.complex128), 1, (Z4,))
        with pytest.raises(InconsistentSpectrumError, match=re.escape(message)):
            reconstruct(jchar)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_spectrum_rejected(self, bad):
        values = np.array([4, bad, 0, 0], dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(InconsistentSpectrumError, match="cell 0 reconstructs to"):
                reconstruct(JCharVector(values, 1, (Z4,)))

    def test_default_tolerance_holds_at_large_s(self):
        # At s = 2^19 a tolerance proportional to s would exceed 1/2 and let a
        # spectrum whose every cell is off by 0.4 through.
        rng = np.random.default_rng(19)
        runs = {tuple(rng.integers(0, 2, 19).tolist()): 1 for _ in range(50)}
        design = Design((("0", "1"),) * 19, runs)
        jchar = j_characteristics(design, ["2"] * 19)
        assert reconstruct(jchar) == dict(design.counts)
        shifted = jchar.values.copy()
        shifted[0] += 0.4 * jchar.space_size
        with pytest.raises(InconsistentSpectrumError):
            reconstruct(JCharVector(shifted, jchar.n_runs, jchar.structures))

    def test_length_mismatch(self):
        jchar = JCharVector(np.ones(4, dtype=np.complex128), 1, (Z4,))
        with pytest.raises(ValueError):
            reconstruct(jchar, (V, V))


class TestGwlp:
    def test_entries_are_floats_and_raw_is_values(self):
        pattern = GWLP([1, 0, 3])
        assert pattern.values == (1.0, 0.0, 3.0)
        assert pattern.raw == pattern.values
        assert pattern.k == 2

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative entry"):
            GWLP((1.0, -1e-300))


class TestGwlpChar:
    def test_paper_values_both_structures(self, paper_design):
        for assignment in ([Z4] * 3, [V] * 3):
            jchar = j_characteristics(paper_design, assignment)
            pattern = gwlp_char(jchar, assignment)
            assert pattern.values == (1.0, 0.0, 0.0, 3.0)

    def test_full_factorial_vanishes(self):
        design = full_factorial((2, 3))
        for assignment in all_assignments(design):
            jchar = j_characteristics(design, assignment)
            pattern = gwlp_char(jchar, assignment)
            assert pattern[0] == 1.0
            assert max(pattern.wordlengths) < 1e-12

    def test_half_fraction(self):
        design = half_fraction()
        assignment = check_assignment(design, ["2", "2", "2"])
        jchar = j_characteristics(design, assignment)
        pattern = gwlp_char(jchar, assignment)
        assert pattern.values == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-12)
        # Independent derivation by direct summation over all 8 characters.
        assert oracle_gwlp(design, assignment) == pytest.approx(
            [1.0, 0.0, 0.0, 1.0], abs=1e-12
        )

    def test_single_run_design(self):
        # One run of multiplicity 1: every |chi_g| = 1, so A_j counts the
        # weight-j elements: A_j = C(3, j) * 3^j for three 4-level factors.
        design = Design((("0", "1", "2", "3"),) * 3, {(1, 2, 3): 1})
        assignment = (Z4, Z4, Z4)
        jchar = j_characteristics(design, assignment)
        pattern = gwlp_char(jchar, assignment)
        assert pattern.values == pytest.approx((1.0, 9.0, 27.0, 27.0), abs=1e-9)

    def test_matches_oracle_on_random_designs(self):
        rng = np.random.default_rng(36)
        for _ in range(8):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4), max_distinct=8)
            for assignment in all_assignments(design):
                jchar = j_characteristics(design, assignment)
                got = gwlp_char(jchar, assignment)
                expected = oracle_gwlp(design, assignment)
                assert list(got.raw) == pytest.approx(expected, abs=1e-8)

    def test_parseval(self, paper_design):
        # sum_j A_j = (s/N^2) * sum O(g)^2; equals 4 for the fixture array.
        jchar = j_characteristics(paper_design, [Z4] * 3)
        pattern = gwlp_char(jchar, [Z4] * 3)
        assert sum(pattern.raw) == pytest.approx(4.0, abs=1e-9)
        rng = np.random.default_rng(37)
        for _ in range(15):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4, 6))
            assignment = all_assignments(design)[0]
            pattern = gwlp_char(j_characteristics(design, assignment), assignment)
            expected = (
                design.space_size
                / design.n_runs**2
                * sum(m * m for m in design.counts.values())
            )
            assert sum(pattern.raw) == pytest.approx(expected, rel=1e-8)

    def test_invariant_under_relabeling(self, paper_design):
        rng = np.random.default_rng(38)
        perms = [list(rng.permutation(4)) for _ in range(3)]
        moved = relabel_levels(paper_design, perms)
        for assignment in ([Z4] * 3, [V] * 3):
            a = gwlp_char(j_characteristics(paper_design, assignment), assignment)
            b = gwlp_char(j_characteristics(moved, assignment), assignment)
            assert list(a.values) == pytest.approx(list(b.values), abs=1e-9)
        # ... while the spectra themselves move: relabeling is not chi-invariant.
        jchar_a = j_characteristics(paper_design, [Z4] * 3)
        jchar_b = j_characteristics(moved, [Z4] * 3)
        assert np.abs(jchar_a.values - jchar_b.values).max() > 1.0

    def test_a0_pinned(self):
        rng = np.random.default_rng(39)
        design = random_design(rng, max_k=2, sizes_pool=(3, 4))
        assignment = all_assignments(design)[0]
        pattern = gwlp_char(j_characteristics(design, assignment), assignment)
        assert pattern[0] == 1.0

    def test_no_runs_rejected(self):
        jchar = JCharVector(np.zeros(4, dtype=np.complex128), 0, (Z4,))
        with pytest.raises(ValueError):
            gwlp_char(jchar)


class TestTable1Fixture:
    def test_fixture_matches_both_spectra(self, paper_design):
        table = load_table1()
        jz = j_characteristics(paper_design, [Z4] * 3).values
        jv = j_characteristics(paper_design, [V] * 3).values
        listed = set()
        for label, entry in table.items():
            index = paper_index(label)
            listed.add(index)
            assert jz[index] == pytest.approx(entry["Z4"], abs=1e-9), label
            assert jv[index] == pytest.approx(entry["V"], abs=1e-9), label
        for index in set(range(64)) - listed:
            assert abs(jz[index]) < 1e-9
            assert abs(jv[index]) < 1e-9
