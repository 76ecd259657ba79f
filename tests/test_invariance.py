"""Margin-route GWLP and its two kernels, the projector oracle, invariance reports, and ranking."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    FIXTURES,
    PEAK_MARGIN,
    V,
    Z4,
    all_assignments,
    dual_weights,
    exact_gwlp,
    full_scan_witness,
    linear_code,
    mobius_alternating_list,
    pair_subset_norm,
    part_tables,
    random_design,
    tensordot_apply,
    traced,
)
from wordlength import (
    Design,
    GWLP,
    ResourceLimitError,
    compare_aberration,
    gwlp_char,
    gwlp_margin,
    j_characteristics,
    margins,
    parse_design,
    parse_structure,
    projector_norms,
    relabel_levels,
    resolution_and_strength,
    subset_norm,
    verify_invariance,
)
from wordlength import invariance
from wordlength.design import _MAX_INT64_ROOT
from wordlength.invariance import table_norm
from wordlength.kron import build_projector
from wordlength.spectra import INTERNAL_TOL, _residue_bound, assignment_character_table


def gwlp_of(*wordlengths: float) -> GWLP:
    return GWLP((1.0, *wordlengths))


class TestSubsetNorm:
    def test_paper_empty_subset(self, paper_design):
        assert subset_norm(paper_design, ()) == pytest.approx(4.0)

    def test_paper_singleton(self, paper_design):
        assert subset_norm(paper_design, [0]) == pytest.approx(4.0)

    def test_paper_full_subset(self, paper_design):
        assert subset_norm(paper_design, [0, 1, 2]) == pytest.approx(16.0)

    def test_boundary_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            design = random_design(rng, max_k=3)
            n, s = design.n_runs, design.space_size
            assert subset_norm(design, ()) == pytest.approx(n * n / s)
            full = subset_norm(design, range(design.k))
            assert full == pytest.approx(sum(m * m for m in design.counts.values()))

    def test_squares_past_int64_are_exact(self):
        # N = 2^33 + 1 fits int64 but N^2 does not, so the counts are Python ints.
        design = Design((("a", "b"),), {(0,): 2**33, (1,): 1})
        assert margins(design, ()).counts.dtype == object
        totals = invariance._margin_subset_norms(design)  # the empty subset, then {0}
        assert totals.dtype == object
        totals = totals.tolist()
        assert totals == [(2**33 + 1) ** 2, 2**66 + 1]
        assert all(type(total) is int for total in totals)

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            design = random_design(rng, max_k=4, sizes_pool=(2, 3, 4))
            k = design.k
            values = {}
            for mask in range(1 << k):
                subset = [i for i in range(k) if mask >> i & 1]
                values[mask] = subset_norm(design, subset)
            for mask in range(1 << k):
                for sub in range(1 << k):
                    if sub & mask == sub:
                        assert values[sub] <= values[mask] + 1e-9

    def test_table_norm_is_subset_norm_of_the_same_margins(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            design = random_design(rng, max_k=3)
            for mask in range(1 << design.k):
                subset = [i for i in range(design.k) if mask >> i & 1]
                table = margins(design, subset)
                assert table_norm(table, design.space_size) == subset_norm(design, subset)


class TestMobius:
    def test_zeta_round_trip(self):
        # Summing the alternating values over submasks must reproduce B_K.
        rng = np.random.default_rng(43)
        for _ in range(10):
            design = random_design(rng, max_k=4, sizes_pool=(2, 3, 4))
            k = design.k
            norms = projector_norms(design)
            for mask in range(1 << k):
                subset = [i for i in range(k) if mask >> i & 1]
                expected = subset_norm(design, subset)
                total, sub = 0.0, mask
                while True:
                    total += norms[sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
                assert total == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    def test_matches_the_list_transform_past_int64(self, k):
        rng = np.random.default_rng(k)
        pairs = rng.integers(-(2**62), 2**62, (1 << k, 2)).tolist()
        values = [v * 2**70 + w for v, w in pairs]  # about 2^132, exact only as ints
        sizes = rng.integers(1, 13, k).tolist()
        totals = np.array(values, object)
        got = invariance._scale_and_invert(totals, sizes).tolist()
        scaled = [
            math.prod(s for i, s in enumerate(sizes) if mask >> i & 1) * value
            for mask, value in enumerate(values)
        ]
        assert got == mobius_alternating_list(scaled, k)
        assert all(type(v) is int for v in got)
        assert totals.tolist() == [v * 2**70 + w for v, w in pairs]  # the input is not modified

    def test_scaled_subset_norms_follow_the_bitmask(self):
        # Subsets of one weight class have different norms here; a swap would show.
        counts = {(0, 0, 0): 1, (1, 0, 3): 2, (1, 2, 3): 4}
        design = Design((("a", "b"), ("a", "b", "c"), tuple("abcd")), counts)
        subsets = [[i for i in range(3) if mask >> i & 1] for mask in range(8)]
        scaled = [pair_subset_norm(design, subset) for subset in subsets]
        got = invariance._scaled_projector_norms(design).tolist()
        assert got == mobius_alternating_list(scaled, 3)
        assert len(set(scaled[1:7])) == 6

    @pytest.mark.parametrize(
        "n_log2, width",
        [(31, object), (30, np.int64)],  # s * N^2 is 2^64, past int64, or 2^62
    )
    def test_both_sides_of_the_int64_width(self, n_log2, width):
        # N^2 fits int64 on both sides; one heavy run puts s * sum m^2 near s * N^2.
        counts = {(0, 0): 2**n_log2 - 3, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        design = Design((("a", "b"), ("a", "b")), counts)
        assert design.n_runs**2 <= _MAX_INT64_ROOT**2
        subsets = [[i for i in range(2) if mask >> i & 1] for mask in range(4)]
        exact = mobius_alternating_list([pair_subset_norm(design, K) for K in subsets], 2)
        got = invariance._scaled_projector_norms(design)
        assert got.dtype == width
        assert got.tolist() == exact
        assert gwlp_margin(design).values == tuple(map(float, exact_gwlp(design)))
        assert projector_norms(design) == [float(Fraction(v, 4)) for v in exact]

    def test_projector_norms_nonnegative(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            design = random_design(rng, max_k=4)
            assert min(projector_norms(design)) > -1e-9


class TestProjectorOracle:
    def test_three_routes_agree_at_small_s(self):
        # s * ||M_J U O||^2 via explicit Kronecker projectors must equal the
        # alternating margin form and the |chi|^2 total over S_J.
        rng = np.random.default_rng(45)
        for _ in range(12):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4))
            if design.space_size > 64:
                continue
            s, k = design.space_size, design.k
            counts = design.dense_counts()
            norms = projector_norms(design)
            weights_masks = self._nonidentity_masks(design)
            for assignment in all_assignments(design):
                u = assignment_character_table(assignment) / math.sqrt(s)
                uo = u @ counts
                chi = j_characteristics(design, assignment).values
                for mask in range(1 << k):
                    kinds = ["Q" if mask >> i & 1 else "P" for i in range(k)]
                    m_j = build_projector(kinds, design.sizes)
                    explicit = s * np.linalg.norm(m_j @ uo) ** 2
                    margin_form = s * norms[mask]
                    chi_total = float((np.abs(chi[weights_masks == mask]) ** 2).sum())
                    assert explicit == pytest.approx(margin_form, abs=1e-9)
                    assert chi_total == pytest.approx(margin_form, abs=1e-9)

    @staticmethod
    def _nonidentity_masks(design: Design) -> np.ndarray:
        sizes = design.sizes
        s = design.space_size
        masks = np.zeros(s, dtype=np.int64)
        indices = np.arange(s)
        stride = s
        for i, size in enumerate(sizes):
            stride //= size
            masks |= ((indices // stride) % size != 0).astype(np.int64) << i
        return masks


class TestGwlpMargin:
    def test_paper_design(self, paper_design):
        assert gwlp_margin(paper_design).values == (1.0, 0.0, 0.0, 3.0)

    def test_single_run(self):
        design = Design((("0", "1", "2", "3"),) * 3, {(1, 0, 2): 1})
        assert gwlp_margin(design).values == pytest.approx((1.0, 9.0, 27.0, 27.0))

    def test_full_factorial(self):
        design = Design(
            (("0", "1"), ("0", "1", "2")),
            {run: 1 for run in itertools.product(range(2), range(3))},
        )
        pattern = gwlp_margin(design)
        assert pattern[0] == 1.0
        assert max(pattern.values[1:]) < 1e-12

    def test_agrees_with_character_route_everywhere(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            design = random_design(rng)
            margin = gwlp_margin(design)
            for assignment in all_assignments(design):
                char = gwlp_char(j_characteristics(design, assignment))
                assert list(char.values) == pytest.approx(list(margin.values), abs=1e-8)

    def test_invariant_under_relabeling_and_reference_choice(self, paper_design):
        baseline = gwlp_margin(paper_design)
        rng = np.random.default_rng(47)
        perms = [list(rng.permutation(4)) for _ in range(3)]
        moved = relabel_levels(paper_design, perms)
        assert list(gwlp_margin(moved).values) == pytest.approx(
            list(baseline.values), abs=1e-9
        )
        # Reparse the same runs with a different reference level per factor.
        text = paper_design.serialize().replace(
            "symbols: 0 a b c | 0 a b c | 0 a b c",
            "symbols: c a b 0 | b 0 a c | a c 0 b",
        )
        reparsed = parse_design(text)
        assert reparsed != paper_design
        assert list(gwlp_margin(reparsed).values) == pytest.approx(
            list(baseline.values), abs=1e-9
        )

    def test_uses_margins_only(self, paper_design):
        # Identical results however the multiset is presented: shuffled run
        # order and split multiplicities parse to the same design.
        lines = [
            " ".join(paper_design.levels[i][r] for i, r in enumerate(run))
            for run, mult in sorted(paper_design.counts.items())
            for _ in range(mult)
        ]
        rng = np.random.default_rng(48)
        rng.shuffle(lines)
        shuffled = parse_design(
            "symbols: 0 a b c | 0 a b c | 0 a b c\n" + "\n".join(lines)
        )
        assert shuffled == paper_design
        assert gwlp_margin(shuffled).raw == gwlp_margin(paper_design).raw

    def test_subset_cap(self, monkeypatch):
        # 2^21 subsets are refused before either kernel starts, whether the
        # multiplicities are int64 or, with N past _MAX_INT64_ROOT, Python ints.
        one_run = Design((("0", "1"),) * 21, {(0,) * 21: 1})
        heavy_run = Design((("0", "1"),) * 21, {(0,) * 21: _MAX_INT64_ROOT + 1})
        assert subset_norm(one_run, range(21)) == 1.0  # margins stay uncapped
        monkeypatch.setattr(invariance, "margins", None)
        monkeypatch.setattr(invariance, "_margin_subset_norms", None)
        monkeypatch.setattr(invariance, "_pair_subset_norms", None)
        for design in (one_run, heavy_run):
            for route in (gwlp_margin, projector_norms):
                with pytest.raises(ResourceLimitError, match=r"k = 21 factors .* cap 1048576"):
                    route(design)


def _refuse(*args, **kwargs):
    raise AssertionError("this kernel should not run")


def _distinct_runs(n: int, sizes: tuple[int, ...], first_mult: int = 1) -> Design:
    """The first n cells of the full factorial in Yates order, once each but the first."""
    runs = itertools.islice(itertools.product(*map(range, sizes)), n)
    counts = {run: 1 for run in runs}
    counts[(0,) * len(sizes)] = first_mult
    return Design(tuple(tuple(map(str, range(s))) for s in sizes), counts)


def _sampled_runs(seed: int, n: int, sizes: tuple[int, ...], max_mult: int) -> Design:
    """n distinct cells drawn at random, each with multiplicity 1..max_mult."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(math.prod(sizes), n, replace=False)
    runs = np.array(np.unravel_index(codes, sizes)).T.tolist()
    mults = rng.integers(1, max_mult + 1, n).tolist()
    return Design(tuple(tuple(map(str, range(s))) for s in sizes), dict(zip(map(tuple, runs), mults)))


class TestKernelSwitch:
    SIZES = (4, 4, 2)  # k = 3, 32 cells

    def test_pairs_up_to_the_crossover(self, monkeypatch):
        n = invariance._PAIR_RUNS_PER_SUBSET << 3
        design = _distinct_runs(n, self.SIZES)
        monkeypatch.setattr(invariance, "margins", _refuse)
        assert gwlp_margin(design).values == tuple(map(float, exact_gwlp(design)))

    def test_margins_past_the_crossover(self, monkeypatch):
        n = (invariance._PAIR_RUNS_PER_SUBSET << 3) + 1
        design = _distinct_runs(n, self.SIZES)
        monkeypatch.setattr(invariance, "_pair_subset_norms", _refuse)
        assert gwlp_margin(design).values == tuple(map(float, exact_gwlp(design)))

    def test_pairs_when_n_squared_passes_int64(self, monkeypatch):
        # Two distinct runs take pairs whatever N is, here _MAX_INT64_ROOT + 1,
        # with Python-int multiplicities.
        design = _distinct_runs(2, self.SIZES, first_mult=_MAX_INT64_ROOT)
        assert design.n_runs == _MAX_INT64_ROOT + 1
        monkeypatch.setattr(invariance, "margins", _refuse)
        assert gwlp_margin(design).values == tuple(map(float, exact_gwlp(design)))

    def test_pair_kernel_over_several_blocks(self):
        # 600 runs make 180,300 pairs, read in four blocks of whole rows; the
        # margin kernel is the reference.
        design = _sampled_runs(49, 600, (2, 3, 4, 8, 9, 12, 2, 3), max_mult=3)
        pairs = invariance._pair_subset_norms(design)
        assert pairs.tolist() == invariance._margin_subset_norms(design).tolist()

    @pytest.mark.memory_bound
    def test_pair_side_memory_is_bounded_by_the_block(self):
        # k = 12, n = 2048 is on the pair side; 2048 rows of masks alone
        # would take 16 MiB.
        design = _sampled_runs(50, 2048, (4,) * 12, max_mult=1)
        assert len(design.counts) <= invariance._PAIR_RUNS_PER_SUBSET << design.k
        _, peak = traced(lambda: gwlp_margin(design))
        assert peak < 8 * 2**20

    @pytest.mark.memory_bound
    def test_lattice_memory_at_eighteen_binary_factors(self):
        # 2^18 subsets: an int64 array over them is 2 MiB, a list of Python
        # ints about 10 MiB.
        design = _sampled_runs(52, 100, (2,) * 18, max_mult=3)
        _, peak = traced(lambda: gwlp_margin(design))
        assert peak < 8 * 2**20


class TestMarginWalk:
    def test_each_table_tallies_its_parents_cells(self, monkeypatch):
        # 2,000 runs over 60,480 cells: the tables of small subsets have few
        # cells, so their children scan far fewer rows than the design has.
        design = _sampled_runs(54, 2000, (4, 5, 6, 7, 8, 9), max_mult=1)
        scanned = []

        def recorder(table_design, subset):
            scanned.append(table_design)
            return margins(table_design, subset)

        monkeypatch.setattr(invariance, "margins", recorder)
        assert gwlp_margin(design).values == tuple(map(float, exact_gwlp(design)))
        assert len(scanned) == 2**6 and scanned[0] is design
        rows = sum(table_design._run_matrix[0].shape[1] for table_design in scanned)
        assert rows <= 2**6 * 2000 // 2

    @pytest.mark.memory_bound
    def test_walk_keeps_one_table_per_depth(self):
        # k = 7, n = 5,000: the full set's table alone is 320 kB.  Stacking
        # every child's table before walking it peaked at 2.45 MB.
        design = _sampled_runs(55, 5000, (2, 3, 4, 5, 6, 7, 8), max_mult=3)
        _, peak = traced(lambda: invariance._margin_subset_norms(design))
        assert peak <= 1_102_064 + PEAK_MARGIN, f"the walk allocated {peak} bytes"


class TestVerifyInvariance:
    @pytest.mark.memory_bound
    def test_sweep_memory_is_one_array_per_depth(self):
        # 4^8 cells: each complex array is 1 MiB.  The sweep keeps the count
        # vector and at most 7 prefixes; a tree of every prefix would keep
        # hundreds of them.
        design = _sampled_runs(53, 300, (4,) * 8, max_mult=1)
        report, peak = traced(lambda: verify_invariance(design, "all"))
        assert len(report.assignments) == 256
        assert peak <= 16 * 2**20

    def test_paper_two_assignments(self, paper_design):
        report = verify_invariance(paper_design, [[Z4] * 3, [V] * 3])
        assert report.max_deviation < 1e-9
        assert report.invariant
        witness = report.witness
        assert witness is not None
        assert witness.components == (1, 1, 1)
        assert witness.first_value == -6 - 2j
        assert witness.other_value == 8
        assert report.resolution == 3 and report.strength == 2

    def test_witness_takes_the_larger_delta_then_the_earlier_assignment(self, paper_design):
        # Each later assignment first differs from 4,4,4 at aaa, where chi is
        # -6-2i: by |4i + 6 + 2i| under 4,4,2x2, and by |4 + 4i + 6 + 2i|, the
        # same float, under both 4,2x2,2x2 and 2x2,2x2,4.
        first, smaller, tied = [Z4] * 3, [Z4, Z4, V], [[Z4, V, V], [V, V, Z4]]
        for later in (tied, tied[::-1]):
            assignments = [first, smaller, *later]
            witness = verify_invariance(paper_design, assignments).witness
            assert witness == full_scan_witness(paper_design, assignments)
            assert witness.components == (1, 1, 1)
            assert (witness.first_value, witness.other_value) == (-6 - 2j, 4 + 4j)
            assert witness.other_assignment == tuple(later[0])

    def test_paper_all_assignments(self, paper_design):
        report = verify_invariance(paper_design, "all")
        assert len(report.assignments) == 8
        assert report.max_deviation < 1e-9
        assert len(report.max_deviation_by_j) == 4

    def test_residue_bound_is_the_largest_of_the_sweep(self):
        # crossed_3x8.txt: the 3-level factor comes first, so every part runs
        # as a table step, and D is 11 under 3,8 but 9 under 3,4x2 and 3,2x2x2.
        design = parse_design((FIXTURES / "crossed_3x8.txt").read_text(encoding="utf-8"))
        report = verify_invariance(design, "all")
        bounds = [_residue_bound(a, design.n_runs) for a in report.assignments]
        assert report.residue_bound == max(bounds) > min(bounds) > INTERNAL_TOL
        assert report.witness is None

    def test_prime_sizes_have_unique_assignment(self):
        design = Design((("0", "1"), ("0", "1", "2")), {(0, 0): 1, (1, 2): 2})
        report = verify_invariance(design, "all")
        assert len(report.assignments) == 1
        assert report.witness is None
        assert report.invariant

    def test_assignment_cap(self):
        six_octal = Design((tuple("01234567"),) * 6, {(0,) * 6: 1})  # 3^6 = 729
        with pytest.raises(ResourceLimitError):
            verify_invariance(six_octal, "all")
        with pytest.raises(ResourceLimitError):
            verify_invariance(six_octal, [["8"] * 6] * 257)

    def test_size_mismatch_rejected(self, paper_design):
        with pytest.raises(ValueError):
            verify_invariance(paper_design, [[Z4, Z4, parse_structure("3")]])
        with pytest.raises(ValueError, match="unknown assignment sweep 'some'"):
            invariance.expand_assignments(paper_design, "some")
        with pytest.raises(ValueError, match="need at least one assignment"):
            invariance.expand_assignments(paper_design, [])

    def test_tolerance_must_be_a_number_at_least_zero(self, paper_design):
        assert verify_invariance(paper_design, [[Z4] * 3], tol=0).invariant
        for tol in (-1.0, math.nan):
            with pytest.raises(ValueError):
                verify_invariance(paper_design, [[Z4] * 3], tol=tol)

    def test_random_designs_are_invariant(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            design = random_design(rng, max_k=3)
            report = verify_invariance(design, "all")
            assert report.invariant, (design.sizes, report.max_deviation)


class TestOctacode:
    """fixtures/octacode.txt, the Z_4-linear octacode, checked against the oracles
    that its golden CLI entries are not: the dual code and the table route."""

    GENERATOR = [[int(c) for c in row] for row in ("10003121", "01001231", "00103332", "00012311")]

    @pytest.fixture(scope="class")
    def octacode(self) -> Design:
        return parse_design((FIXTURES / "octacode.txt").read_text(encoding="utf-8"))

    def test_fixture_is_the_code_with_the_dual_pattern(self, octacode):
        assert octacode == linear_code(self.GENERATOR, 4)
        assert octacode.n_runs == len(octacode.counts) == 256
        weights = dual_weights(self.GENERATOR, 4)
        assert weights == [1, 0, 0, 0, 14, 112, 0, 112, 17]
        assert list(gwlp_margin(octacode)) == weights

    @pytest.mark.parametrize(
        ("groups", "perm", "nonzero", "full"),
        [
            ("4", [0, 1, 2, 3], 256, 256),
            ("4", [0, 3, 2, 1], 256, 256),
            ("4", [0, 2, 1, 3], 576, 64),
            ("2x2", [0, 1, 2, 3], 928, 32),
            ("2x2", [0, 3, 2, 1], 928, 32),
            ("2x2", [0, 2, 1, 3], 928, 32),
        ],
    )
    def test_spectrum_counts_match_the_table_route(self, octacode, groups, perm, nonzero, full):
        # Under Z_4, |chi| is 256 on the 256 dual words and 0 off them; under
        # 2x2 on every factor, 32 entries have modulus 256 and 896 have 128.
        # Relabelling factor 1 by x -> 3x, an automorphism of Z_4, keeps that
        # support; the swap of 1 and 2 is not one, and moves it.  Every
        # permutation that fixes 0 is an automorphism of 2x2.  The pattern
        # stays the dual code's in all six cases.
        design = relabel_levels(octacode, [perm] + [None] * 7)
        structures = [parse_structure(groups)] * 8
        jchar = j_characteristics(design, structures)
        reference = tensordot_apply(part_tables(structures), design.dense_counts())
        np.testing.assert_allclose(jchar.values, reference, rtol=0, atol=1e-9)
        modulus = np.abs(jchar.values)
        assert (np.count_nonzero(modulus), np.count_nonzero(modulus == 256)) == (nonzero, full)
        pattern = [1, 0, 0, 0, 14, 112, 0, 112, 17]
        assert list(gwlp_char(jchar)) == list(gwlp_margin(design)) == pattern

    def test_every_assignment_gives_the_pattern_but_not_the_spectrum(self, octacode):
        report = verify_invariance(octacode, "all")
        assert len(report.assignments) == 256 and report.invariant
        assert list(report.margin_gwlp) == dual_weights(self.GENERATOR, 4)
        two = [[Z4] * 8, [V] * 8]
        witness = verify_invariance(octacode, two).witness
        assert witness == full_scan_witness(octacode, two)
        assert report.witness.components == witness.components == (0, 0, 0, 1, 0, 1, 1, 1)
        assert (witness.first_value, witness.other_value) == (0, 256)


class TestTernarySimplex:
    """fixtures/simplex_3_13.txt, the 27 words of the ternary [13, 3] simplex code.
    Its 3^13 cells are above the dense cap, so only the margin route rates it."""

    GENERATOR = [
        [int(c) for c in row] for row in ("0000111111111", "0111000111222", "1012012012012")
    ]

    def test_margin_route_gives_the_hamming_dual_pattern(self):
        design = parse_design((FIXTURES / "simplex_3_13.txt").read_text(encoding="utf-8"))
        assert design == linear_code(self.GENERATOR, 3)
        # One column per point of PG(2, 3), each with first nonzero coordinate 1.
        columns = list(zip(*self.GENERATOR))
        assert len(set(columns)) == 13 and all(next(filter(None, c)) == 1 for c in columns)
        n_squared = design.n_runs**2
        exact = exact_gwlp(design)
        pattern = gwlp_margin(design)
        assert [a * n_squared for a in pattern] == [a * n_squared for a in exact]
        assert exact[3:6] == [104, 468, 1404]
        assert sum(exact) == 3**10  # the dual [13, 10] Hamming code
        assert resolution_and_strength(pattern) == (3, 2)
        with pytest.raises(ResourceLimitError, match="exceeds the cap 1048576"):
            j_characteristics(design, ["3"] * 13)


class TestResolutionAndStrength:
    def test_paper_design(self, paper_design):
        assert resolution_and_strength(gwlp_margin(paper_design)) == (3, 2)

    def test_full_factorial(self):
        design = Design(
            (("0", "1"), ("0", "1", "2")),
            {run: 1 for run in itertools.product(range(2), range(3))},
        )
        assert resolution_and_strength(gwlp_margin(design)) == (None, 2)

    def test_single_run(self):
        design = Design((("0", "1", "2", "3"),) * 3, {(0, 1, 2): 1})
        assert resolution_and_strength(gwlp_margin(design)) == (1, 0)

    def test_tolerance_must_be_a_number_at_least_zero(self):
        assert resolution_and_strength(gwlp_of(0.0, 1.0), 0.0) == (2, 1)
        for tol in (math.nan, -1.0):
            with pytest.raises(ValueError, match="^tolerance must be a number >= 0$"):
                resolution_and_strength(gwlp_of(0.0, 1.0), tol)


class TestCompareAberration:
    def test_first_better_at_index_two(self):
        verdict = compare_aberration(gwlp_of(0, 0, 3), gwlp_of(0, 1, 2))
        assert (verdict.ordering, verdict.index) == ("first-better", 2)

    def test_tie(self):
        verdict = compare_aberration(gwlp_of(0, 0, 3), gwlp_of(0, 0, 3))
        assert (verdict.ordering, verdict.index) == ("tie", None)

    def test_first_better_at_last_index(self):
        verdict = compare_aberration(gwlp_of(0, 0, 3), gwlp_of(0, 0, 4))
        assert (verdict.ordering, verdict.index) == ("first-better", 3)

    def test_antisymmetry(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            a = gwlp_of(*rng.integers(0, 3, size=3).tolist())
            b = gwlp_of(*rng.integers(0, 3, size=3).tolist())
            ab = compare_aberration(a, b)
            ba = compare_aberration(b, a)
            flip = {"first-better": "second-better", "second-better": "first-better", "tie": "tie"}
            assert ba.ordering == flip[ab.ordering]
            assert ba.index == ab.index

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare_aberration(gwlp_of(0, 0), gwlp_of(0, 0, 0))

    def test_tolerance_must_be_a_number_at_least_zero(self):
        assert compare_aberration(gwlp_of(0, 3), gwlp_of(0, 3), tol=0).ordering == "tie"
        for tol in (-1.0, math.nan):
            with pytest.raises(ValueError):
                compare_aberration(gwlp_of(0, 3), gwlp_of(0, 3), tol=tol)
