"""Spectra: J-characteristics, reconstruction, and the character-route GWLP."""

from __future__ import annotations

import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    FIXTURES,
    all_assignments,
    oracle_gwlp,
    oracle_jchar,
    part_tables,
    random_design,
    traced,
    yates_elements,
)
from wordlength import (
    GWLP,
    Design,
    InconsistentSpectrumError,
    ResourceLimitError,
    check_assignment,
    element_weights,
    gwlp_char,
    j_characteristics,
    parse_structure,
    reconstruct,
    relabel_levels,
    verify_invariance,
)
from wordlength import spectra
from wordlength.groups import character_table, cyclic_character_table
from wordlength.kron import factored_apply
from wordlength.render import dumps
from wordlength.spectra import JCharVector, _PrefixWalk, weight

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

    @pytest.mark.parametrize("literals", [["2"] * 63, ["2"] * 64, ["1"] * 70 + ["2"]])
    def test_flat_index_past_numpys_index_and_axis_limits(self, literals):
        # np.unravel_index refused 2**63 elements (intp) and 71 axes (at most 64).
        structures = [parse_structure(lit) for lit in literals]
        last = math.prod(st.order for st in structures) - 1
        assert weight(structures, last) == sum(st.order > 1 for st in structures)
        assert weight(structures, np.int64(1)) == 1
        assert weight(structures, 0) == 0

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

    def test_element_weights_are_shared_per_order_tuple(self):
        # Every assignment of a sweep has the same orders, so one vector serves all.
        weights = element_weights((Z4, parse_structure("3"), V))
        assert element_weights((V, parse_structure("3"), Z4)) is weights
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1

    def test_part_tables_are_shared_and_read_only(self):
        first = part_tables((Z4, V, parse_structure("8x2")))
        again = part_tables((parse_structure("2x2x2"), Z4))
        assert again[0] is first[1] and again[3] is first[0]
        for table, order in zip(first, (4, 2, 2, 8, 2)):
            assert not table.flags.writeable
            assert table is cyclic_character_table(order)

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

    @pytest.mark.parametrize("literal", ["444", "4,4,4"])
    def test_bare_string_assignment_is_refused(self, paper_design, literal):
        # A str iterates by character, so "444" would silently mean three Z4.
        message = re.escape('is a str, not a list like ["4", "2x2", "4"]')
        with pytest.raises(ValueError, match=message):
            check_assignment(paper_design, literal)
        with pytest.raises(ValueError, match=message):
            j_characteristics(paper_design, literal)
        with pytest.raises(ValueError, match=message):
            verify_invariance(paper_design, [["4", "4", "4"], literal])
        with pytest.raises(ValueError, match=message):
            JCharVector(np.ones(64, dtype=np.complex128), 16, literal)

    @pytest.mark.parametrize(
        ("assignment", "position", "entry"),
        [([4, 4, 4], 1, "4"), ([Z4, None, Z4], 2, "None"), ([Z4, V, (4,)], 3, "(4,)")],
    )
    def test_an_entry_of_another_type_is_named(self, paper_design, assignment, position, entry):
        message = re.escape(
            f'assignment entry {position} is {entry}, not a structure literal like "2x2" or an AbelianStructure'
        )
        with pytest.raises(TypeError, match=message):
            j_characteristics(paper_design, assignment)
        with pytest.raises(TypeError, match=message):
            verify_invariance(paper_design, [["4", "4", "4"], assignment])
        with pytest.raises(TypeError, match=message):
            JCharVector(np.ones(64, dtype=np.complex128), 16, assignment)

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
            # Factors' element indices are Yates over their parts, so -g is per part.
            digits, index = yates_elements([d for st in assignment for d in st.cyclic_orders])
            neg = index(-digits)
            assert np.abs(jchar.values[neg] - jchar.values.conj()).max() < 1e-9

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

    @pytest.mark.memory_bound
    def test_dense_route_memory_is_bounded_by_its_blocks(self):
        # At s = 4096 the whole table is 256 MiB; the head and a block are
        # 1 MiB each.
        rng = np.random.default_rng(54)
        codes = rng.choice(4**6, 300, replace=False)
        runs = zip(*(d.tolist() for d in np.unravel_index(codes, (4,) * 6)))
        design = Design((tuple(ALPHABET),) * 6, dict.fromkeys(runs, 1))
        _, peak = traced(lambda: j_characteristics(design, [Z4] * 6, "dense"))
        assert peak <= 8 * 2**20

    @pytest.mark.memory_bound
    @pytest.mark.parametrize("algorithm", ["dense", "factorized"])
    def test_a_part_past_256_levels_leaves_no_table_behind(self, algorithm):
        # Z_2039's table is 63.4 MiB. The dense route's head was a copy of it
        # (127 MiB peak), and the table cache kept it after the call.
        rng = np.random.default_rng(2039)
        levels = tuple(map(str, range(2039)))
        design = Design((levels,), {(int(x),): 1 for x in rng.choice(2039, 300, replace=False)})
        table_bytes = 2039**2 * 16
        tracemalloc.start()
        try:
            jchar = j_characteristics(design, ["2039"], algorithm)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2**20
        if algorithm == "dense":
            assert peak < 1.3 * table_bytes
        assert jchar.values[0] == 300

    @pytest.mark.memory_bound
    def test_dense_cap_is_checked_before_the_table_is_built(self):
        design = Design((tuple(ALPHABET),) * 7, {(0,) * 7: 1})
        message = "^dense character table of order 16384 exceeds the cap 4096$"
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=message):
                j_characteristics(design, [Z4] * 7, "dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_assignment_validation(self, paper_design):
        with pytest.raises(ValueError):
            j_characteristics(paper_design, [Z4, Z4])
        with pytest.raises(ValueError):
            j_characteristics(paper_design, [Z4, Z4, parse_structure("3")])
        with pytest.raises(ValueError):
            j_characteristics(paper_design, [Z4] * 3, "quantum")


class TestPrefixWalk:
    @pytest.mark.parametrize(
        ("design_kind", "sweep"),
        [
            # Shares the first two factors, repeats, then moves back.
            ("paper", [[Z4] * 3, [Z4, Z4, V], [Z4, Z4, V], [Z4, V, V], [Z4] * 3]),
            # A one-level last factor contracts nothing past the kept prefix,
            # which one cyclic part leaves contiguous.
            ("one_level", [[Z4, "1"], [Z4, "1"], [V, "1"], [Z4, "1"]]),
            # Every part has order 2 or 4, so every kept prefix is a flat
            # exact-phase array, resumed under another split of later factors.
            ("quarter_turns", [["2", "4x2", V], ["2", "2x2x2", Z4], ["2", "4x2", Z4], ["2", "2x2x2", Z4]]),
            # The exact steps stop at the 3-level factor, before or after a
            # kept prefix.
            ("switch", [[Z4, "3", "8"], [Z4, "3", "4x2"], [V, "3", "8"], [Z4, "3", "2x2x2"]]),
        ],
    )
    def test_a_zeroed_spectrum_leaves_later_ones_intact(self, paper_design, design_kind, sweep):
        design = {
            "paper": paper_design,
            "one_level": Design((tuple(ALPHABET), ("x",)), {(1, 0): 2, (3, 0): 1}),
            "quarter_turns": Design(
                (("0", "1"), tuple("01234567"), tuple(ALPHABET)),
                {(0, 5, 1): 2, (1, 2, 3): 1, (1, 7, 0): 1},
            ),
            "switch": Design(
                (tuple(ALPHABET), ("x", "y", "z"), tuple("01234567")),
                {(0, 1, 5): 2, (2, 0, 7): 1, (3, 2, 2): 1},
            ),
        }[design_kind]
        walk = _PrefixWalk(design)
        for assignment in sweep:
            jchar = j_characteristics(design, assignment, walk=walk)
            one_shot = j_characteristics(design, assignment)
            assert np.array_equal(jchar.values.view(np.float64), one_shot.values.view(np.float64))
            jchar.values[:] = 0

    def test_runs_only_the_factorized_transform_of_its_design(self, paper_design):
        walk = _PrefixWalk(paper_design)
        with pytest.raises(ValueError, match="factorized transform, not 'dense'"):
            j_characteristics(paper_design, [Z4] * 3, "dense", walk=walk)
        other = relabel_levels(paper_design, [[3, 2, 1, 0]] * 3)
        with pytest.raises(ValueError, match="another design"):
            j_characteristics(other, [Z4] * 3, walk=walk)


class TestQuarterTurnSteps:
    """Leading parts of order 2 and 4 run as exact steps while N <= 2**53."""

    @staticmethod
    def spy_steps(monkeypatch) -> list[int]:
        orders = []
        step = spectra._quarter_step
        monkeypatch.setattr(spectra, "_quarter_step", lambda flat, d: orders.append(d) or step(flat, d))
        return orders

    @staticmethod
    def reference(design, assignment) -> np.ndarray:
        structures = check_assignment(design, assignment)
        return factored_apply(part_tables(structures), design.dense_counts().astype(np.complex128))

    def test_a_quarter_turn_assignment_takes_the_steps(self, paper_design, monkeypatch):
        orders = self.spy_steps(monkeypatch)
        walk = _PrefixWalk(paper_design)
        for jchar in (
            j_characteristics(paper_design, [Z4, V, Z4], walk=walk),
            j_characteristics(paper_design, [Z4, V, Z4]),
        ):
            assert np.array_equal(jchar.values, self.reference(paper_design, [Z4, V, Z4]))
        assert orders == [4, 2, 2, 4] * 2

    def test_the_steps_stop_at_the_first_other_part(self, monkeypatch):
        design = Design((tuple(ALPHABET), ("x", "y", "z"), ("0", "1")), {(1, 2, 0): 2, (3, 0, 1): 1})
        orders = self.spy_steps(monkeypatch)
        for assignment in ([V, "3", "2"], [Z4, "3", "2"]):
            jchar = j_characteristics(design, assignment)
            assert np.array_equal(jchar.values, self.reference(design, assignment))
        assert orders == [2, 2, 4]

    @pytest.mark.parametrize(("n_runs", "steps"), [(2**53, [4, 2, 2] * 2), (2**53 + 2, [])])
    def test_only_while_n_runs_is_at_most_two_to_the_53(self, monkeypatch, n_runs, steps):
        # Multiplicities past int64's square root are Python ints; above
        # 2**53 a partial sum may round, so the table route runs.
        design = Design((tuple(ALPHABET),) * 2, {(0, 0): n_runs - 3, (1, 3): 2, (2, 1): 1})
        assert design.n_runs == n_runs
        orders = self.spy_steps(monkeypatch)
        for jchar in (
            j_characteristics(design, [Z4, V], walk=_PrefixWalk(design)),
            j_characteristics(design, [Z4, V]),
        ):
            assert np.array_equal(
                jchar.values.view(np.float64), self.reference(design, [Z4, V]).view(np.float64)
            )
        assert orders == steps

    @staticmethod
    def design_4_8() -> Design:
        rng = np.random.default_rng(53)
        codes = rng.choice(4**8, 300, replace=False)
        runs = zip(*(d.tolist() for d in np.unravel_index(codes, (4,) * 8)))
        return Design((tuple(ALPHABET),) * 8, dict.fromkeys(runs, 1))

    @pytest.mark.memory_bound
    @pytest.mark.parametrize("groups", [["4"] * 8, ["2x2"] * 8, ["4", "2x2", "2x2", "4"] * 2])
    def test_one_shot_memory_stays_within_the_table_route_peak(self, groups):
        # 4^8 cells: each complex array is 1 MiB.  A step holds its input and
        # its output, 2 MiB, within the 2.25 MiB that an add/subtract Z4 step's
        # quarter-size temporary took; a one-shot that kept the count vector
        # (3 MiB) or its prefixes would exceed that.
        design = self.design_4_8()
        j_characteristics(design, groups)  # builds the cached tables
        _, peak = traced(lambda: j_characteristics(design, groups))
        assert peak <= 9 * 2**18 + 2**16

    @pytest.mark.memory_bound
    @pytest.mark.parametrize("groups", [["4"] * 8, ["2x2"] * 8, ["4", "2x2", "2x2", "4"] * 2])
    def test_reconstruct_memory_is_three_cell_arrays(self, groups):
        # At 4^8 the check holds the cells and their difference from the
        # rounded counts (1 MiB each), the rounded counts and the distances
        # (0.5 MiB each).  A transform that kept the conjugated spectrum
        # beside a step's input and output would peak at 3 MiB too; the
        # step-entry bound of the next test tells it apart.
        jchar = j_characteristics(self.design_4_8(), groups)
        reconstruct(jchar)
        _, peak = traced(lambda: reconstruct(jchar))
        assert peak <= 3 * 2**20 + 2**16

    @pytest.mark.memory_bound
    @pytest.mark.parametrize("groups", [["4"] * 8, ["2x2"] * 8, ["4", "2x2", "2x2", "4"] * 2])
    def test_reconstruct_steps_start_with_one_cell_array(self, groups, monkeypatch):
        # Each step of reconstruct's transform starts holding its input alone
        # (1 MiB at 4^8); one that kept the conjugated spectrum would hold two
        # from the second step on.
        jchar = j_characteristics(self.design_4_8(), groups)
        entries = []
        step = spectra._quarter_step

        def spy(flat, d):
            entries.append(tracemalloc.get_traced_memory()[0])
            return step(flat, d)

        monkeypatch.setattr(spectra, "_quarter_step", spy)
        traced(lambda: reconstruct(jchar))
        assert len(entries) == sum(len(parse_structure(g).cyclic_orders) for g in groups)
        assert max(entries) <= 2**20 + 2**16


class TestJCharVector:
    @pytest.mark.parametrize(
        ("shape", "n_runs", "structures", "message"),
        [
            ((1,), 1, (), "a spectrum needs at least one structure"),
            ((8,), 1, (Z4,), "assignment spans 4 elements, spectrum has 8"),
            ((2, 2), 1, (Z4,), "spectrum values have shape (2, 2), not one axis"),
            ((4,), 0, (Z4,), "a spectrum needs at least one run, not n_runs 0"),
            ((4,), -1, (Z4,), "a spectrum needs at least one run, not n_runs -1"),
        ],
    )
    def test_construction_checks_the_fit(self, shape, n_runs, structures, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            JCharVector(np.ones(shape, dtype=np.complex128), n_runs, structures)

    @pytest.mark.parametrize("structures", [["4", "2x2", "4"], [Z4, "2x2", Z4], [Z4, V, Z4]])
    def test_structures_are_kept_as_check_assignment_resolves_them(self, paper_design, structures):
        # Literals are parsed as check_assignment parses them, and a list is stored as a tuple.
        jchar = JCharVector(np.ones(64, dtype=np.complex128), 16, structures)
        assert jchar.structures == check_assignment(paper_design, structures) == (Z4, V, Z4)
        assert type(jchar.structures) is tuple


class TestReconstruct:
    def test_round_trip_paper(self, paper_design):
        for assignment in ([Z4] * 3, [V] * 3, [Z4, V, Z4]):
            jchar = j_characteristics(paper_design, assignment)
            assert reconstruct(jchar) == dict(paper_design.counts)

    def test_tolerance_must_be_a_number_at_least_zero(self, paper_design):
        jchar = j_characteristics(paper_design, [Z4] * 3)
        assert reconstruct(jchar, tol=0) == dict(paper_design.counts)
        for tol in (-1.0, math.nan):
            with pytest.raises(ValueError, match="tolerance must be a number >= 0"):
                reconstruct(jchar, tol=tol)

    def test_round_trip_random(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4, 6))
            for assignment in all_assignments(design):
                jchar = j_characteristics(design, assignment)
                assert reconstruct(jchar) == dict(design.counts)

    @pytest.mark.parametrize("algorithm", ["factorized", "dense"])
    @pytest.mark.parametrize("k", [64, 71])
    def test_one_level_factors_past_numpys_axis_limit(self, paper_design, algorithm, k):
        # A numpy array has at most 64 axes (32 on numpy 1.x).  One-level
        # factors leave the cell count as it is, so such a design is small.
        extra = k - paper_design.k
        wide = Design(
            paper_design.levels + (("0",),) * extra,
            {run + (0,) * extra: mult for run, mult in paper_design.counts.items()},
        )
        assignment = [Z4, V, Z4]
        base = j_characteristics(paper_design, assignment, algorithm)
        jchar = j_characteristics(wide, assignment + ["1"] * extra, algorithm)
        assert jchar.values.tobytes() == base.values.tobytes()
        assert gwlp_char(jchar).values == gwlp_char(base).values + (0.0,) * extra
        assert reconstruct(jchar) == dict(wide.counts)

    def test_all_ones_spectrum_is_single_identity_run(self):
        structures = (Z4, V)
        jchar = JCharVector(np.ones(16, dtype=np.complex128), 1, structures)
        assert reconstruct(jchar) == {(0, 0): 1}

    def test_spectrum_under_wrong_assignment_never_gives_the_design(self, paper_design):
        jchar = j_characteristics(paper_design, [V] * 3)
        try:
            counts = reconstruct(JCharVector(jchar.values, jchar.n_runs, (Z4,) * 3))
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
        table = character_table(Z4)
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

    @pytest.mark.parametrize("structure", [Z4, V])
    def test_overflowing_spectrum_rejected(self, structure):
        values = np.array([1e308, 1e308, 0, 0], dtype=np.complex128)
        # Z4's step is one complex product with its table, which makes inf * 0 NaN.
        printed = "(nan+nanj)" if structure == Z4 else "(inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            message = re.escape(f"cell 0 reconstructs to {printed}")
            with pytest.raises(InconsistentSpectrumError, match=message):
                reconstruct(JCharVector(values, 1, (structure,)))

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
        with pytest.raises(ValueError):
            JCharVector(np.ones(4, dtype=np.complex128), 1, (V, V))


class TestGwlp:
    def test_entries_are_floats_and_raw_is_values(self):
        pattern = GWLP([1, 0, 3])
        assert pattern.values == (1.0, 0.0, 3.0)
        assert pattern.raw == pattern.values
        assert pattern.k == 2

    def test_is_the_tuple_of_its_floats(self):
        pattern = GWLP(np.array([1, 0, 3]))
        assert pattern == (1.0, 0.0, 3.0) and hash(pattern) == hash((1.0, 0.0, 3.0))
        assert type(pattern[2]) is float and repr(pattern) == "(1.0, 0.0, 3.0)"
        assert dumps({"gwlp": pattern}) == '{"gwlp": [1, 0, 3]}'

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative entry"):
            GWLP((1.0, -1e-300))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # A NaN would compare false everywhere: resolution_and_strength would
        # skip it and compare_aberration would call it a tie.
        with pytest.raises(ValueError, match="non-finite entry"):
            GWLP((1.0, bad, 0.5))

    def test_a_spectrum_holding_nan_gives_no_pattern(self):
        values = np.array([1, np.nan, 0, 0], dtype=np.complex128)
        with pytest.raises(ValueError, match="non-finite entry"):
            gwlp_char(JCharVector(values, 1, (Z4,)))


class TestGwlpChar:
    def test_paper_values_both_structures(self, paper_design):
        for assignment in ([Z4] * 3, [V] * 3):
            jchar = j_characteristics(paper_design, assignment)
            pattern = gwlp_char(jchar)
            assert pattern.values == (1.0, 0.0, 0.0, 3.0)

    def test_full_factorial_vanishes(self):
        design = full_factorial((2, 3))
        for assignment in all_assignments(design):
            jchar = j_characteristics(design, assignment)
            pattern = gwlp_char(jchar)
            assert pattern[0] == 1.0
            assert max(pattern.values[1:]) < 1e-12

    def test_half_fraction(self):
        design = half_fraction()
        assignment = check_assignment(design, ["2", "2", "2"])
        jchar = j_characteristics(design, assignment)
        pattern = gwlp_char(jchar)
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
        pattern = gwlp_char(jchar)
        assert pattern.values == pytest.approx((1.0, 9.0, 27.0, 27.0), abs=1e-9)

    def test_matches_oracle_on_random_designs(self):
        rng = np.random.default_rng(36)
        for _ in range(8):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4), max_distinct=8)
            for assignment in all_assignments(design):
                jchar = j_characteristics(design, assignment)
                got = gwlp_char(jchar)
                expected = oracle_gwlp(design, assignment)
                assert list(got.raw) == pytest.approx(expected, abs=1e-8)

    def test_parseval(self, paper_design):
        # sum_j A_j = (s/N^2) * sum O(g)^2; equals 4 for the fixture array.
        jchar = j_characteristics(paper_design, [Z4] * 3)
        pattern = gwlp_char(jchar)
        assert sum(pattern.raw) == pytest.approx(4.0, abs=1e-9)
        rng = np.random.default_rng(37)
        for _ in range(15):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4, 6))
            assignment = all_assignments(design)[0]
            pattern = gwlp_char(j_characteristics(design, assignment))
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
            a = gwlp_char(j_characteristics(paper_design, assignment))
            b = gwlp_char(j_characteristics(moved, assignment))
            assert list(a.values) == pytest.approx(list(b.values), abs=1e-9)
        # ... while the spectra themselves move: relabeling is not chi-invariant.
        jchar_a = j_characteristics(paper_design, [Z4] * 3)
        jchar_b = j_characteristics(moved, [Z4] * 3)
        assert np.abs(jchar_a.values - jchar_b.values).max() > 1.0

    def test_a0_pinned(self):
        rng = np.random.default_rng(39)
        design = random_design(rng, max_k=2, sizes_pool=(3, 4))
        assignment = all_assignments(design)[0]
        pattern = gwlp_char(j_characteristics(design, assignment))
        assert pattern[0] == 1.0

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError):
            JCharVector(np.zeros(4, dtype=np.complex128), 0, (Z4,))


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
