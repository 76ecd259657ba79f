"""Design parsing, margins, relabeling, and serialization."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from helpers import exact_gwlp, naive_margin_counts, oracle_margin_counts, random_design
from wordlength import (
    Design,
    DesignParseError,
    ResourceLimitError,
    gwlp_margin,
    margins,
    parse_design,
    relabel_levels,
    subset_norm,
)

# Runs of the fixture array, as (factor1, factor2, factor3) symbol triples.
PAPER_RUNS = [
    ("0", "0", "0"), ("0", "a", "a"), ("0", "b", "b"), ("0", "c", "c"),
    ("a", "0", "b"), ("a", "a", "0"), ("a", "b", "c"), ("a", "c", "a"),
    ("b", "0", "a"), ("b", "a", "c"), ("b", "b", "0"), ("b", "c", "b"),
    ("c", "0", "c"), ("c", "a", "b"), ("c", "b", "a"), ("c", "c", "0"),
]


class TestParse:
    def test_paper_fixture(self, paper_design):
        assert paper_design.k == 3
        assert paper_design.sizes == (4, 4, 4)
        assert paper_design.n_runs == 16
        assert paper_design.space_size == 64
        alphabet = ("0", "a", "b", "c")
        assert paper_design.levels == (alphabet,) * 3
        runs = {
            tuple(alphabet[r] for r in run): mult
            for run, mult in paper_design.counts.items()
        }
        assert runs == {run: 1 for run in PAPER_RUNS}

    def test_rows_and_columns_layouts_agree(self, paper_design):
        text = "symbols: 0 a b c | 0 a b c | 0 a b c\n" + "\n".join(
            " ".join(run) for run in PAPER_RUNS
        )
        assert parse_design(text) == paper_design

    def test_duplicate_lines_accumulate(self):
        design = parse_design("u v\nu v\nu v\n")
        assert design.counts == {(0, 0): 3}
        assert design.n_runs == 3

    def test_multiplier_suffix(self):
        design = parse_design("levels: 2 2\n0 1 x3\n1 0\n")
        assert design.counts == {(0, 1): 3, (1, 0): 1}
        assert design.n_runs == 4

    def test_ragged_row_reports_line(self):
        with pytest.raises(DesignParseError) as err:
            parse_design("a b c\na b\n")
        assert err.value.line == 2

    def test_unknown_symbol_under_header(self):
        with pytest.raises(DesignParseError) as err:
            parse_design("symbols: 0 1 | 0 1\n0 1\n0 z\n")
        assert err.value.line == 3
        assert "z" in str(err.value)

    def test_zero_runs(self):
        with pytest.raises(DesignParseError):
            parse_design("# only a comment\n")

    def test_comments_and_blank_lines_ignored(self):
        design = parse_design("# header\n\n0 1  # trailing\n\n# done\n")
        assert design.counts == {(0, 0): 1}

    def test_unknown_header(self):
        with pytest.raises(DesignParseError):
            parse_design("shape: wide\n0 1\n")

    def test_inferred_alphabet_is_sorted(self):
        design = parse_design("c a\nb a\n")
        assert design.levels == (("b", "c"), ("a",))

    def test_levels_header_fixes_sizes(self):
        design = parse_design("levels: 3 2\n0 1\n")
        assert design.sizes == (3, 2)
        assert design.levels[0] == ("0", "1", "2")

    def test_levels_header_rejects_nonnumeric(self):
        with pytest.raises(DesignParseError):
            parse_design("levels: 2 2\nx y\n")
        # Digits outside "0".."s-1", including non-ASCII ones that str.isdigit accepts.
        for symbol in ("3", "01", "\u00b2", "\u0661"):
            with pytest.raises(DesignParseError, match="outside 0..2"):
                parse_design(f"levels: 3 3\n0 {symbol}\n")

    def test_columns_layout_ragged(self):
        with pytest.raises(DesignParseError) as err:
            parse_design("layout: columns\n0 1 0\n0 1\n")
        assert err.value.line == 3

    def test_columns_layout_unknown_symbol_reports_its_factor_line(self):
        text = "symbols: a b | c d\nlayout: columns\na b a b\nc d c z\n"
        with pytest.raises(DesignParseError) as err:
            parse_design(text)
        assert err.value.line == 4
        assert "'z'" in str(err.value)

    def test_symbol_count_disagreement(self):
        with pytest.raises(DesignParseError):
            parse_design("symbols: 0 1 | 0 1 | 0 1\n0 1\n")


class TestDesignType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Design((("0", "1"),), {})
        with pytest.raises(ValueError):
            Design((("0", "1"),), {(2,): 1})
        with pytest.raises(ValueError):
            Design((("0", "1"),), {(0,): 0})
        with pytest.raises(ValueError):
            Design((("0", "0"),), {(0,): 1})
        for counts in [{(1,): 1.5}, {(0.5,): 1}, {(1.0,): 1}, {(1,): 2.0}, {(1,): "2"}]:
            with pytest.raises(ValueError, match="must be integers"):
                Design((("a", "b"),), counts)

    def test_numpy_integers_are_stored_as_python_ints(self):
        design = Design((("a", "b"),), {(np.int64(1),): np.int32(3)})
        ((run, mult),) = design.counts.items()
        assert type(run[0]) is int and type(mult) is int
        assert type(design.n_runs) is int
        assert design.serialize() == "symbols: a b\nb x3\n"
        assert parse_design(design.serialize()) == design

    def test_counts_are_read_only(self, paper_design):
        with pytest.raises(TypeError):
            paper_design.counts[(0, 0, 0)] = 5

    def test_dense_counts(self, paper_design):
        dense = paper_design.dense_counts()
        assert dense.sum() == 16
        assert dense[0] == 1  # run (0,0,0) sits at Yates index 0
        assert (dense >= 0).all()

    def test_dense_counts_cap(self):
        one_run = Design((("0", "1"),) * 21, {(0,) * 21: 1})  # 2^21 cells
        with pytest.raises(ResourceLimitError):
            one_run.dense_counts()

    def test_serialize_round_trip(self, paper_design):
        assert parse_design(paper_design.serialize()) == paper_design
        rng = np.random.default_rng(21)
        for _ in range(20):
            design = random_design(rng)
            assert parse_design(design.serialize()) == design


class TestMargins:
    def test_empty_subset_is_n(self, paper_design):
        table = margins(paper_design, ())
        assert dict(table.items()) == {(): 16}
        assert sum(table.counts.tolist()) == 16

    def test_singleton_margins_uniform(self, paper_design):
        table = margins(paper_design, [0])
        assert sorted(dict(table.items()).values()) == [4, 4, 4, 4]
        assert np.array_equal(table.dense(), np.full(4, 4.0))

    def test_pair_margins_all_one(self, paper_design):
        # Strength-2, index-1 property of the fixture, checked by direct count.
        for pair in ([0, 1], [0, 2], [1, 2]):
            table = margins(paper_design, pair)
            assert len(dict(table.items())) == 16
            assert set(dict(table.items()).values()) == {1}

    def test_full_subset_is_counts(self, paper_design):
        table = margins(paper_design, range(3))
        assert dict(table.items()) == dict(paper_design.counts)

    def test_against_expansion_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4))
            for mask in range(1 << design.k):
                subset = [i for i in range(design.k) if mask >> i & 1]
                table = margins(design, subset)
                assert dict(table.items()) == oracle_margin_counts(design, subset)
                assert sum(table.counts.tolist()) == design.n_runs

    def test_marginalization_consistency(self):
        # margins(D, K) must equal the K-marginalization of margins(D, K') for K <= K'.
        rng = np.random.default_rng(23)
        for _ in range(10):
            design = random_design(rng, max_k=4, sizes_pool=(2, 3))
            k = design.k
            full = margins(design, range(k))
            for mask in range(1 << k):
                subset = tuple(i for i in range(k) if mask >> i & 1)
                table = margins(design, subset)
                collapsed: dict = {}
                for cell, count in full.items():
                    key = tuple(cell[i] for i in subset)
                    collapsed[key] = collapsed.get(key, 0) + count
                assert dict(table.items()) == collapsed

    def test_out_of_range_subset(self, paper_design):
        with pytest.raises(ValueError):
            margins(paper_design, [3])

    @pytest.mark.parametrize("sizes", [(2,) * 70, (16,) * 16], ids=["70-factors", "16^16"])
    def test_subset_with_at_least_2_to_63_cells(self, sizes):
        # Too many factors, or too many cells, for one flat int64 cell index.
        rng = np.random.default_rng(63)
        counts: dict = {}
        for run in rng.integers(0, sizes, (40, len(sizes))).tolist():
            counts[tuple(run)] = counts.get(tuple(run), 0) + 1
        counts[tuple(s - 1 for s in sizes)] = 3
        design = Design(tuple(tuple(str(j) for j in range(s)) for s in sizes), counts)
        full = margins(design, range(len(sizes)))
        assert dict(full.items()) == dict(design.counts)
        assert full.sizes == sizes
        assert dict(margins(design, range(1, len(sizes), 2)).items()) == naive_margin_counts(
            design, range(1, len(sizes), 2)
        )

    def test_multiplicity_beyond_float_precision(self):
        # 2^53 + 1 has no float64; its square and sums pass int64 as well.
        big = 9007199254740993
        design = Design((("a", "b"), ("a", "b", "c")), {(0, 1): big, (1, 1): 2, (0, 2): big})
        assert dict(margins(design, [0]).items()) == {(0,): 2 * big, (1,): 2}
        assert dict(margins(design, [1]).items()) == {(1,): big + 2, (2,): big}
        assert dict(margins(design, ()).items()) == {(): 2 * big + 2}
        n = 2 * big + 2
        assert subset_norm(design, ()).value == float(Fraction(n * n, 6))
        assert gwlp_margin(design).raw == tuple(float(a) for a in exact_gwlp(design))

    def test_total_beyond_int64(self):
        design = Design((("a", "b"),), {(0,): 2**63, (1,): 2**63 + 5})
        assert dict(margins(design, [0]).items()) == {(0,): 2**63, (1,): 2**63 + 5}
        assert dict(margins(design, ()).items()) == {(): 2**64 + 5}
        assert gwlp_margin(design).raw == tuple(float(a) for a in exact_gwlp(design))

    def test_table_arrays(self, paper_design):
        table = margins(paper_design, [2, 0])
        assert table.cells.shape == (16, 2)
        assert table.counts.dtype == np.int64
        assert table.cells.tolist() == sorted(table.cells.tolist())
        empty = margins(paper_design, ())
        assert empty.cells.shape == (1, 0)
        assert np.array_equal(empty.dense(), [16.0])
        huge = Design((("a", "b"),), {(0,): 2**63, (1,): 1})
        assert margins(huge, [0]).counts.dtype == object
        assert np.array_equal(margins(huge, [0]).dense(), [2.0**63, 1.0])


class TestRelabel:
    def test_identity(self, paper_design):
        assert relabel_levels(paper_design, [None] * 3) == paper_design
        perms = [list(range(4))] * 3
        assert relabel_levels(paper_design, perms) == paper_design

    def test_swap_twice_is_identity(self, paper_design):
        swap = [1, 0, 2, 3]
        once = relabel_levels(paper_design, [swap, None, None])
        assert once != paper_design
        assert relabel_levels(once, [swap, None, None]) == paper_design

    def test_cycle_preserves_margins(self, paper_design):
        cycle = [1, 2, 3, 0]  # 0 -> a -> b -> c -> 0
        moved = relabel_levels(paper_design, [cycle, None, None])
        assert moved.n_runs == 16
        assert sorted(dict(margins(moved, [0]).items()).values()) == [4, 4, 4, 4]

    def test_multiset_of_multiplicities_preserved(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4))
            perms = [list(rng.permutation(s)) for s in design.sizes]
            moved = relabel_levels(design, perms)
            assert moved.n_runs == design.n_runs
            assert sorted(moved.counts.values()) == sorted(design.counts.values())

    def test_non_bijection_rejected(self, paper_design):
        with pytest.raises(ValueError):
            relabel_levels(paper_design, [[0, 0, 1, 2], None, None])
        with pytest.raises(ValueError):
            relabel_levels(paper_design, [None, None])
