"""Property tests for the Yates-indexed paths and the margin route.

Transforms, weights, densification, parsing, margin counts, the exact
margin-route pattern, the A_0 and sign of every route's pattern, the
rendering of spectra, and the reading of spectrum reports.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exact_gwlp, naive_margin_counts, pair_subset_norm
from wordlength import (
    Design,
    enumerate_structures,
    gwlp_char,
    gwlp_margin,
    j_characteristics,
    margins,
    parse_design,
    projector_norms,
    reconstruct,
    relabel_levels,
    weight,
)
from wordlength.cli import _read_values
from wordlength.invariance import _scaled_subset_norms
from wordlength.render import Spectrum, dumps, element_labels, fmt_float

MAX_SPACE = 4096
SIZES = (1, 2, 3, 4, 6, 8, 9)
# No whitespace, "|", "#" or ":", which the design-file syntax reserves.
SYMBOLS = st.text(alphabet="abcxyz019_-", min_size=1, max_size=3)

PROPERTY = settings(max_examples=60, deadline=None)


def digits_of(index: int, orders) -> tuple[int, ...]:
    """Reference Yates decode: per-factor components, first factor most significant."""
    digits = []
    for order in reversed(orders):
        index, r = divmod(index, order)
        digits.append(r)
    return tuple(reversed(digits))


@st.composite
def sizes(draw) -> tuple[int, ...]:
    chosen = draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=6))
    while math.prod(chosen) > MAX_SPACE:
        chosen.pop()
    return tuple(chosen)


# Small multiplicities, and ones past 2^53 (not exact as floats) whose sums
# can pass 2^63 (not exact as int64).
MULTIPLICITIES = st.one_of(st.integers(1, 4), st.integers(2**53, 2**62))


@st.composite
def designs(draw, symbols: bool = False, multiplicities=st.integers(1, 4)) -> Design:
    shape = draw(sizes())
    if symbols:
        levels = tuple(
            tuple(draw(st.lists(SYMBOLS, min_size=s, max_size=s, unique=True))) for s in shape
        )
    else:
        levels = tuple(tuple(str(j) for j in range(s)) for s in shape)
    run = st.tuples(*(st.integers(0, s - 1) for s in shape))
    entries = draw(st.lists(st.tuples(run, multiplicities), min_size=1, max_size=12))
    counts: dict[tuple[int, ...], int] = {}
    for cell, mult in entries:
        counts[cell] = counts.get(cell, 0) + mult
    return Design(levels, counts)


@st.composite
def designs_with_assignment(draw):
    design = draw(designs())
    assignment = tuple(draw(st.sampled_from(enumerate_structures(s))) for s in design.sizes)
    return design, assignment


@PROPERTY
@given(designs_with_assignment())
def test_reconstruct_inverts_the_transform(case):
    design, assignment = case
    assert reconstruct(j_characteristics(design, assignment)) == dict(design.counts)


@PROPERTY
@given(designs_with_assignment())
def test_flat_index_weight_matches_component_weight(case):
    design, assignment = case
    orders = [structure.order for structure in assignment]
    for index in range(design.space_size):
        digits = digits_of(index, orders)
        assert weight(assignment, index) == weight(assignment, digits)
        assert weight(assignment, index) == sum(1 for d in digits if d)


@PROPERTY
@given(designs_with_assignment())
def test_every_route_gives_a0_one_and_no_negative_entry(case):
    design, assignment = case
    patterns = [gwlp_margin(design)] + [
        gwlp_char(j_characteristics(design, assignment, algorithm))
        for algorithm in ("factorized", "dense")
    ]
    for pattern in patterns:
        assert pattern[0] == 1.0
        assert min(pattern) >= 0


@PROPERTY
@given(designs())
def test_dense_counts_nonzeros_are_the_runs(design):
    dense = design.dense_counts()
    assert dense.shape == (design.space_size,)
    nonzero = {digits_of(int(i), design.sizes): dense[i] for i in np.flatnonzero(dense)}
    assert nonzero == dict(design.counts)


@PROPERTY
@given(designs(symbols=True))
def test_serialize_round_trips(design):
    assert parse_design(design.serialize()) == design


def used_symbols_only(design: Design) -> Design:
    """The design a header-less file gives: alphabets are the sorted used symbols."""
    used = [sorted({design.levels[i][run[i]] for run in design.counts}) for i in range(design.k)]
    counts = {
        tuple(used[i].index(design.levels[i][r]) for i, r in enumerate(run)): mult
        for run, mult in design.counts.items()
    }
    return Design(tuple(map(tuple, used)), counts)


@PROPERTY
@pytest.mark.parametrize("header", ["symbols", "levels", "none", "columns"])
@given(data=st.data())
def test_shuffled_split_run_lines_parse_back(header, data):
    design = data.draw(designs(symbols=header != "levels"))
    lines = []  # (symbols, multiplier or None for a bare line)
    for run, mult in design.counts.items():
        symbols = [design.levels[i][r] for i, r in enumerate(run)]
        cuts = data.draw(st.sets(st.integers(1, mult - 1))) if mult > 1 else set()
        bounds = [0, *sorted(cuts), mult]
        for part in (b - a for a, b in zip(bounds, bounds[1:])):
            if header == "columns" or data.draw(st.booleans()):
                lines += [(symbols, None)] * part  # repeated lines
            else:
                lines.append((symbols, part))
    lines = data.draw(st.permutations(lines))
    if header == "none" and lines[0][1] is None:
        lines[0] = (lines[0][0], 1)  # the first line's count of symbols sets k
    if header == "columns":
        text = "symbols: " + " | ".join(" ".join(a) for a in design.levels) + "\n"
        text += "layout: columns\n"
        text += "".join(" ".join(column) + "\n" for column in zip(*(s for s, _ in lines)))
    else:
        text = {
            "symbols": "symbols: " + " | ".join(" ".join(a) for a in design.levels) + "\n",
            "levels": "levels: " + " ".join(map(str, design.sizes)) + "\n",
            "none": "",
        }[header]
        text += "".join(
            " ".join(symbols) + ("" if mult is None else f" x{mult}") + "\n"
            for symbols, mult in lines
        )
    expected = used_symbols_only(design) if header == "none" else design
    assert parse_design(text) == expected


@PROPERTY
@given(st.data())
def test_relabelling_levels_keeps_the_margin_gwlp(data):
    design = data.draw(designs())
    perms = [data.draw(st.permutations(range(s))) for s in design.sizes]
    assert gwlp_margin(relabel_levels(design, perms)) == gwlp_margin(design)


@PROPERTY
@given(st.data())
def test_margin_counts_match_a_dict_count(data):
    design = data.draw(designs(multiplicities=MULTIPLICITIES))
    subset = data.draw(st.sets(st.integers(0, design.k - 1)))  # may be empty
    table = margins(design, subset)
    assert list(table.items()) == sorted(naive_margin_counts(design, subset).items())
    assert table.subset == tuple(sorted(subset))
    assert table.sizes == tuple(design.sizes[i] for i in sorted(subset))


@PROPERTY
@given(designs(multiplicities=MULTIPLICITIES))
def test_margin_gwlp_is_the_correctly_rounded_exact_pattern(design):
    assert gwlp_margin(design).raw == tuple(float(a) for a in exact_gwlp(design))


@PROPERTY
@given(designs(multiplicities=MULTIPLICITIES))
def test_scaled_subset_norms_are_exact_pair_sums(design):
    # s * B_K for bitmask K, before the Moebius step, subset by subset: the
    # pattern alone would not notice two subsets of one size swapped.
    subsets = [[i for i in range(design.k) if mask >> i & 1] for mask in range(1 << design.k)]
    assert _scaled_subset_norms(design) == [pair_subset_norm(design, K) for K in subsets]


@PROPERTY
@given(designs(multiplicities=MULTIPLICITIES))
def test_projector_norms_are_never_negative(design):
    assert min(projector_norms(design)) >= 0


# Floats that reach every branch of ".12g" with -0 dropped: signed zeros,
# subnormals, exponent forms on both sides, and exact ties at the 12th digit.
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.220446049250313e-16, -1e-16,
    1e20, -1e20, 1e-20, -1e-20, 1e12, 123456789012.5, 123456789013.5, -0.5, 1 / 3,
)
FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# Any non-empty text: multi-character, non-ASCII, quotes and control characters.
LABEL_SYMBOLS = st.text(min_size=1, max_size=3)


@st.composite
def spectra(draw, parts=FINITE) -> Spectrum:
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    levels = tuple(
        tuple(draw(st.lists(LABEL_SYMBOLS, min_size=s, max_size=s, unique=True))) for s in shape
    )
    column = st.lists(parts, min_size=math.prod(shape), max_size=math.prod(shape))
    values = np.empty(math.prod(shape), dtype=np.complex128)
    values.real, values.imag = draw(column), draw(column)  # no arithmetic: keeps -0.0
    return Spectrum(levels, values)


@st.composite
def repeating_spectra(draw) -> Spectrum:
    """Real and imaginary parts from one small pool, so values repeat across entries and parts."""
    pool = [0.0, -0.0, *draw(st.lists(FINITE, min_size=1, max_size=3))]
    return draw(spectra(st.sampled_from(pool)))


def assert_renders_as_its_list_of_entries(spectrum: Spectrum) -> None:
    entries = [
        {"g": label, "re": re, "im": im}
        for label, re, im in zip(
            element_labels(spectrum.levels),
            spectrum.values.real.tolist(),
            spectrum.values.imag.tolist(),
        )
    ]
    text = dumps(spectrum)
    assert text == dumps(entries)
    assert json.loads(text) == [
        {"g": e["g"], "re": float(fmt_float(e["re"])), "im": float(fmt_float(e["im"]))}
        for e in entries
    ]


@PROPERTY
@given(spectra())
def test_spectrum_renders_as_its_list_of_entries(spectrum):
    assert_renders_as_its_list_of_entries(spectrum)


@PROPERTY
@given(repeating_spectra())
def test_spectrum_with_repeated_values_renders_as_its_list_of_entries(spectrum):
    assert_renders_as_its_list_of_entries(spectrum)


# JSON numbers as json.loads returns them: ints past 2**53 and 2**64 round on
# conversion, and FINITE holds -0.0 and subnormals.
JSON_NUMBERS = st.one_of(st.integers(-(2**70), 2**70), FINITE)


@PROPERTY
@given(st.lists(st.tuples(JSON_NUMBERS, JSON_NUMBERS), max_size=20))
def test_report_values_read_as_complex_of_each_entry(pairs):
    values = _read_values([{"g": "x", "re": re, "im": im} for re, im in pairs])
    expected = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    assert values.dtype == np.complex128
    assert values.view(np.float64).tobytes() == expected.view(np.float64).tobytes()
