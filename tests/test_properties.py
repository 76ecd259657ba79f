"""Property tests for the Yates-indexed paths: transforms, weights, densification, parsing."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlength import (
    Design,
    enumerate_structures,
    gwlp_margin,
    j_characteristics,
    parse_design,
    reconstruct,
    relabel_levels,
    weight,
)

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


@st.composite
def designs(draw, symbols: bool = False) -> Design:
    shape = draw(sizes())
    if symbols:
        levels = tuple(
            tuple(draw(st.lists(SYMBOLS, min_size=s, max_size=s, unique=True))) for s in shape
        )
    else:
        levels = tuple(tuple(str(j) for j in range(s)) for s in shape)
    run = st.tuples(*(st.integers(0, s - 1) for s in shape))
    entries = draw(st.lists(st.tuples(run, st.integers(1, 4)), min_size=1, max_size=12))
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


@PROPERTY
@given(st.data())
def test_relabelling_levels_keeps_the_margin_gwlp(data):
    design = data.draw(designs())
    perms = [data.draw(st.permutations(range(s))) for s in design.sizes]
    assert gwlp_margin(relabel_levels(design, perms)) == gwlp_margin(design)
