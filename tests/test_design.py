"""Design parsing, margins, relabeling, and serialization."""

from __future__ import annotations

import itertools
import re
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

    def test_lines_naming_one_run_tally_into_it(self):
        # Differing spacing or comments: distinct lines, one run.
        design = parse_design("symbols: a b | c d\na c\n a  c # one\na\tc#two\na c \nb d\n")
        assert design.counts == {(0, 0): 4, (1, 1): 1}

    def test_multiplier_suffix(self):
        design = parse_design("levels: 2 2\n0 1 x3\n1 0\n")
        assert design.counts == {(0, 1): 3, (1, 0): 1}
        assert design.n_runs == 4

    def test_ragged_row_reports_line(self):
        with pytest.raises(DesignParseError) as err:
            parse_design("a b c\na b\n")
        assert err.value.line == 2

    def test_repeated_bad_row_is_reported_at_its_first_occurrence(self):
        text = "levels: 2 2\n0 1\n1 0\n0 1 1\n0 0\n0 x0\n1 1 x2\n0 1\n0 1 1\n"
        with pytest.raises(DesignParseError) as err:
            parse_design(text)
        assert str(err.value) == "line 4: expected 2 symbols, got 3"

    def test_unknown_symbol_under_header(self):
        cases = [
            ("0 1\n0 z\n", 3, "'z' not in factor 2's"),
            # Two bad lines: the earlier one is named, whichever factor it fails in.
            ("0 1\n0 y\nz 1\n0 y\n", 3, "'y' not in factor 2's"),
            # A bad line after a repeated good line.
            ("1 0\n1 0 x2\n1 0\n1 w x3\n", 5, "'w' not in factor 2's"),
        ]
        for body, line, message in cases:
            with pytest.raises(DesignParseError) as err:
                parse_design("symbols: 0 1 | 0 1\n" + body)
            assert err.value.line == line
            assert str(err.value) == f"line {line}: symbol {message} alphabet"

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

    def test_numeric_symbol_outside_its_alphabet_reports_its_first_line(self):
        message = "uses symbols outside 0..1; add a symbols header"
        cases = [
            ("levels: 2 2\n0 1\n1 0\n0 2\n", 4, 2),
            ("levels: 2 2\nlayout: columns\n0 1 0\n1 0 2\n", 4, 2),
            # The earliest bad line is named, whichever factor it fails in.
            ("levels: 2 2\n0 1\n0 2\n5 0\n0 2\n", 3, 2),
            ("levels: 2 2\nlayout: columns\n0 1 0 5\n1 2 0 0\n", 3, 1),
        ]
        for text, line, factor in cases:
            with pytest.raises(DesignParseError) as err:
                parse_design(text)
            assert err.value.line == line
            assert str(err.value) == f"line {line}: factor {factor} {message}"

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
        # A bad symbol late in the first factor's line is still the first in the file.
        text = "symbols: a b | c d\nlayout: columns\na b a x\nz d c d\n"
        with pytest.raises(DesignParseError) as err:
            parse_design(text)
        assert str(err.value) == "line 3: symbol 'x' not in factor 1's alphabet"

    def test_columns_layout_identical_factor_lines_are_distinct_factors(self):
        design = parse_design("layout: columns\na b a\na b a\n")
        assert design.levels == (("a", "b"), ("a", "b"))
        assert design.counts == {(0, 0): 2, (1, 1): 1}
        # Each bad factor line is named by its own number, not by an earlier copy.
        cases = [
            (
                "symbols: a b | c d | a b\nlayout: columns\na b\nc d\nc d\n",
                5,
                "symbol 'c' not in factor 3's alphabet",
            ),
            ("levels: 2 2\nlayout: columns\n0 1\n0 1\n0 1\n", 5, "expected 2 factor lines, got 3"),
        ]
        for text, line, message in cases:
            with pytest.raises(DesignParseError) as err:
                parse_design(text)
            assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("levels: 2 x\n0 1\n", 1, "levels header must list integers"),
            # ASCII digits only, the rule of structure literals: int() would
            # read these as 10, 2 and 2.
            ("levels: 2 1_0\n0 1\n", 1, "levels header must list integers"),
            ("# sizes\nlevels: +2\n0\n", 2, "levels header must list integers"),
            ("levels: 2 \u0662\n0 1\n", 1, "levels header must list integers"),
            ("# sizes\nlevels: 2 0\n0 1\n", 2, "levels header must list positive sizes"),
            ("levels:\n0\n", 1, "levels header must list positive sizes"),
            # Sizes summing past design.DENSIFY_CAP are refused before any alphabet is built.
            (
                "levels: 3000000\n0\n1\n",
                1,
                "levels header declares 3000000 levels, above the cap 1048576",
            ),
            (
                "# sizes\nlevels: 2 1048577\n0 1\n",
                2,
                "levels header declares 1048579 levels, above the cap 1048576",
            ),
            # Each size is within the cap, but their sum is not.
            (
                "levels: 1048576 2\n0 0\n",
                1,
                "levels header declares 1048578 levels, above the cap 1048576",
            ),
            ("symbols: a b | | c d\na c\n", 1, "factor 2 has no symbols"),
            ("symbols: a b | c c\na c\n", 1, "factor 2 has duplicate symbols"),
            ("layout: rows\nlayout: diagonal\n0 1\n", 2, "unknown layout 'diagonal'"),
            ("shape: wide\n0 1\n", 1, "unknown header 'shape'"),
            # The disagreement is named at whichever header comes second.
            (
                "levels: 2 2\nsymbols: a b | c d e\na c\n",
                2,
                "symbols header disagrees with levels header",
            ),
            (
                "symbols: a b | c d\n\nlevels: 2 3\na c\n",
                3,
                "symbols header disagrees with levels header",
            ),
            # A header given twice is named at its second line, even when both agree.
            ("levels: 3\nlevels: 2\n0\n", 2, "repeated levels header"),
            ("levels: 2\n# again\nlevels: 2\n0\n", 3, "repeated levels header"),
            ("symbols: a b c\nlevels: 3\nsymbols: x y\na\n", 3, "repeated symbols header"),
            ("layout: columns\nlayout: columns\n0 1\n", 2, "repeated layout header"),
        ],
    )
    def test_header_errors_name_their_line(self, text, line, message):
        with pytest.raises(DesignParseError) as err:
            parse_design(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

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
        with pytest.raises(ValueError, match="factor 1 has an empty level alphabet"):
            Design(((),), {(0,): 1})
        with pytest.raises(ValueError, match="a design needs at least one factor"):
            Design((), {(): 1})
        for counts in [{(1,): 1.5}, {(0.5,): 1}, {(1.0,): 1}, {(1,): 2.0}, {(1,): "2"}]:
            with pytest.raises(ValueError, match="must be integers"):
                Design((("a", "b"),), counts)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({(0, 1): 1, (1,): 2}, "run (1,) does not have 2 coordinates"),
            ({(0, 1): 1, (0, 1, 1): 2}, "run (0, 1, 1) does not have 2 coordinates"),
            ({(0, 1): 1, (2, 0): 1}, "run (2, 0) has a level index out of range"),
            ({(0, 1): 1, (0, -1): 1}, "run (0, -1) has a level index out of range"),
            ({(2**64, 0): 1}, f"run ({2**64}, 0) has a level index out of range"),
            ({(0, 1): 1, (1, 0): 0}, "run (1, 0) has multiplicity 0 < 1"),
            ({(1, 1): -(2**70)}, f"run (1, 1) has multiplicity {-(2**70)} < 1"),
            # The first invalid run in insertion order is named, whatever is wrong with it.
            ({(0, 0): 0, (5, 5): 1}, "run (0, 0) has multiplicity 0 < 1"),
            ({(0, 0): 1, (0, 9): 1, (0,): 1}, "run (0, 9) has a level index out of range"),
            ({(0, 0): 1, (1, 0): 1.5}, "runs and multiplicities must be integers"),
            ({(0, 0): 1, (1, 0.0): 1}, "runs and multiplicities must be integers"),
            ({0: 1}, "runs and multiplicities must be integers"),
        ],
    )
    def test_invalid_run_messages(self, counts, message):
        with pytest.raises(ValueError) as err:
            Design((("a", "b"), ("a", "b")), counts)
        assert str(err.value) == message

    def test_runs_are_kept_factor_major(self):
        design = Design((("a", "b"), ("a", "b", "c")), {(1, 2): 3, (0, 1): 2**63})
        runs, mults = design._run_matrix
        assert runs.tolist() == [[1, 0], [2, 1]]
        assert runs.flags.c_contiguous
        assert mults.dtype == object and mults.tolist() == [3, 2**63]

    def test_numpy_integers_are_stored_as_python_ints(self):
        design = Design((("a", "b"),), {(np.int64(1),): np.int32(3)})
        ((run, mult),) = design.counts.items()
        assert type(run[0]) is int and type(mult) is int
        assert type(design.n_runs) is int
        assert design.serialize() == "symbols: a b\nb x3\n"
        assert parse_design(design.serialize()) == design
        design = Design((("a", "b"),), {(True,): True})
        ((run, mult),) = design.counts.items()
        assert type(run[0]) is int and type(mult) is int
        assert type(design.n_runs) is int
        assert design.serialize() == "symbols: a b\nb\n"

    def test_factors_are_numbered_from_one(self):
        with pytest.raises(ValueError, match="^factor 2 has an empty level alphabet$"):
            Design((("a",), ()), {(0, 0): 1})
        with pytest.raises(ValueError, match="^factor 2 has duplicate level symbols$"):
            Design((("a",), ("b", "b")), {(0, 0): 1})

    def test_parsed_runs_are_merged_in_yates_order(self):
        design = parse_design("levels: 2 3\n1 2\n0 1 x2\n1 2 x3\n1  2 # again\n0 0\n")
        runs, mults = design._run_matrix
        assert runs.tolist() == [[0, 0, 1], [0, 1, 2]]
        assert runs.flags.c_contiguous and runs.dtype == np.intp
        assert mults.dtype == np.int64 and mults.tolist() == [1, 2, 5]
        assert design == Design((("0", "1"), ("0", "1", "2")), {(1, 2): 5, (0, 1): 2, (0, 0): 1})
        assert design != object()  # Design.__eq__ leaves other types to them

    # Two distinct runs take the pair kernel; the full 3^3 factorial, the margin kernel.
    @pytest.mark.parametrize("runs", [["012", "102"], list(itertools.product("012", repeat=3))])
    def test_pattern_route_never_builds_the_counts_view(self, runs):
        design = parse_design("".join(" ".join(run) + "\n" for run in runs))
        assert gwlp_margin(design).values[0] == 1
        assert "counts" not in vars(design)
        assert len(design.counts) == len(runs)  # built on first access, then kept
        assert "counts" in vars(design)

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

    # Each symbol would write a file that fails to parse or means another design.
    @pytest.mark.parametrize(
        "symbol", ["", " ", "a b", "a\tb", "\x1c", "\u2028", "#", "a#", "|", "a|b", "\ud800"]
    )
    def test_serialize_refuses_a_symbol_no_file_can_hold(self, symbol):
        design = Design((("0", "1"), ("0", symbol)), {(1, 0): 1})
        message = f"factor 2's symbol {symbol!r} cannot be written to a design file"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            design.serialize()

    def test_serialize_refuses_a_run_line_that_reads_as_a_header(self):
        for levels, factor, symbol, line in [
            ((("a:",), ("b",)), 1, "a:", "a: b"),
            ((("a:b",), ("c",)), 1, "a:b", "a:b c"),
            ((("levels",), (":2",)), 2, ":2", "levels :2"),
        ]:
            design = Design(levels, {(0, 0): 1})
            message = re.escape(
                f"factor {factor}'s symbol {symbol!r} makes the first run line {line!r} "
                "read as a header"
            )
            with pytest.raises(ValueError, match=f"^{message}$"):
                design.serialize()
        # Only the first run line is read for headers; a later one is a run.
        design = Design((("0", "a:"), ("b",)), {(0, 0): 1, (1, 0): 2})
        assert design.serialize() == "symbols: 0 a: | b\n0 b\na: b x2\n"
        assert parse_design(design.serialize()) == design

    def test_a_parsed_symbol_with_a_bar_is_refused_on_the_way_out(self):
        design = parse_design("a|b c\nd e\n")
        assert design.levels == (("a|b", "d"), ("c", "e"))
        with pytest.raises(ValueError, match=re.escape("factor 1's symbol 'a|b' cannot be")):
            design.serialize()


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

    def test_non_integer_positions_are_refused(self, paper_design):
        for subset in ([1.5], [np.float64(1)], [0, 2.0], ["1"]):
            with pytest.raises(ValueError, match="subset positions must be integers"):
                margins(paper_design, subset)
        assert margins(paper_design, [np.int64(1), np.uint8(0)]).subset == (0, 1)

    def test_one_distinct_run(self):
        design = Design((("a", "b"), ("a", "b", "c"), ("a", "b")), {(1, 2, 0): 7})
        for mask in range(1 << 3):
            subset = [i for i in range(3) if mask >> i & 1]
            table = margins(design, subset)
            assert list(table.items()) == [(tuple((1, 2, 0)[i] for i in subset), 7)]
            assert table.cells.shape == (1, len(subset))

    def test_every_run_in_one_cell(self):
        # All runs agree on factors 0 and 2, so that margin has a single cell.
        counts = {(1, j, 2): j + 1 for j in range(5)}
        design = Design((("a", "b"), tuple("vwxyz"), ("a", "b", "c")), counts)
        assert list(margins(design, [0, 2]).items()) == [((1, 2), 15)]
        assert list(margins(design, [1]).items()) == [((j,), j + 1) for j in range(5)]

    @pytest.mark.parametrize("width", [32, 33])
    def test_flat_index_and_row_fallback_agree_at_32_factors(self, width):
        # Past 32 positions, which np.ravel_multi_index refuses on numpy 1.x,
        # the cell codes are still one flat index.
        rng = np.random.default_rng(width)
        counts: dict = {}
        for run in rng.integers(0, 2, (60, 40)).tolist():
            counts[tuple(run)] = 2**62 + int(rng.integers(1, 100))
        for run in list(counts)[:5]:  # repeats in the subset, summing past int64
            counts[run[:width] + (1 - run[width],) + run[width + 1 :]] = 2**62
        design = Design((("0", "1"),) * 40, counts)
        table = margins(design, range(width))
        expected = sorted(naive_margin_counts(design, range(width)).items())
        assert list(table.items()) == expected
        assert table.counts.dtype == object and max(table.counts) > 2**63

    def test_dense_tally_of_more_factors_than_numpy_has_dimensions(self):
        # 70 one-level factors and one of two levels: 2 cells for 3 runs, which
        # the dense tally counts, past the 64 dimensions a numpy array may have.
        lines = ["levels: " + " ".join(["1"] * 70 + ["2"])]
        lines += [" ".join(["0"] * 70 + [last]) for last in "101"]
        design = parse_design("\n".join(lines) + "\n")
        assert dict(design.counts) == {(0,) * 70 + (0,): 1, (0,) * 70 + (1,): 2}
        table = margins(design, range(1, 71))
        assert list(table.items()) == [((0,) * 69 + (0,), 1), ((0,) * 69 + (1,), 2)]

    def test_object_counts_past_int64_are_summed_exactly(self):
        counts = {(i, j): 2**62 + 3 * i + j for i in range(3) for j in range(4)}
        design = Design((("a", "b", "c"), ("a", "b", "c", "d")), counts)
        for subset in ([0], [1], [0, 1], []):
            table = margins(design, subset)
            assert table.counts.dtype == object
            assert list(table.items()) == sorted(naive_margin_counts(design, subset).items())

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
        assert subset_norm(design, ()) == float(Fraction(n * n, 6))
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
