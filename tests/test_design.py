"""Design parsing, margins, relabeling, and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import oracle_margin_counts, random_design
from wordlength import (
    Design,
    DesignParseError,
    ResourceLimitError,
    margins,
    parse_design,
    relabel_levels,
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

    def test_counts_are_read_only(self, paper_design):
        with pytest.raises(TypeError):
            paper_design.counts[(0, 0, 0)] = 5

    def test_dense_counts(self, paper_design):
        dense = paper_design.dense_counts()
        assert dense.sum() == 16
        assert dense[0] == 1  # run (0,0,0) sits at Yates index 0
        assert (dense >= 0).all()

    def test_dense_counts_cap(self, paper_design):
        with pytest.raises(ResourceLimitError):
            paper_design.dense_counts(max_size=63)

    def test_serialize_round_trip(self, paper_design):
        assert parse_design(paper_design.serialize()) == paper_design
        rng = np.random.default_rng(21)
        for _ in range(20):
            design = random_design(rng)
            assert parse_design(design.serialize()) == design


class TestMargins:
    def test_empty_subset_is_n(self, paper_design):
        table = margins(paper_design, ())
        assert table.counts == {(): 16}
        assert table.total() == 16

    def test_singleton_margins_uniform(self, paper_design):
        table = margins(paper_design, [0])
        assert sorted(table.counts.values()) == [4, 4, 4, 4]
        assert np.array_equal(table.dense(), np.full(4, 4.0))

    def test_pair_margins_all_one(self, paper_design):
        # Strength-2, index-1 property of the fixture, checked by direct count.
        for pair in ([0, 1], [0, 2], [1, 2]):
            table = margins(paper_design, pair)
            assert len(table.counts) == 16
            assert set(table.counts.values()) == {1}

    def test_full_subset_is_counts(self, paper_design):
        table = margins(paper_design, range(3))
        assert dict(table.counts) == dict(paper_design.counts)

    def test_against_expansion_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            design = random_design(rng, max_k=3, sizes_pool=(2, 3, 4))
            for mask in range(1 << design.k):
                subset = [i for i in range(design.k) if mask >> i & 1]
                table = margins(design, subset)
                assert dict(table.counts) == oracle_margin_counts(design, subset)
                assert table.total() == design.n_runs

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
                for cell, count in full.counts.items():
                    key = tuple(cell[i] for i in subset)
                    collapsed[key] = collapsed.get(key, 0) + count
                assert dict(table.counts) == collapsed

    def test_out_of_range_subset(self, paper_design):
        with pytest.raises(ValueError):
            margins(paper_design, [3])


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
        assert sorted(margins(moved, [0]).counts.values()) == [4, 4, 4, 4]

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
