"""Property tests for the Yates-indexed paths and the margin route.

Transforms, spectra re-paired with another assignment, weights,
densification, parsing, margin counts, the exact margin-route pattern and the
agreement of its two kernels, the A_0 and sign of every route's pattern, the
invariance witness, the rendering of spectra, and the reading of spectrum
reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    complement,
    dual_weights,
    exact_gwlp,
    full_scan_witness,
    linear_code,
    list_assigned_values,
    mobius_alternating_list,
    naive_margin_counts,
    pair_subset_norm,
    part_tables,
    quarter_turn_butterfly,
    spectrum_entries,
    tensordot_apply,
    yates_elements,
)
from wordlength import (
    Design,
    DesignParseError,
    InconsistentSpectrumError,
    JCharVector,
    enumerate_structures,
    gwlp_char,
    gwlp_margin,
    j_characteristics,
    margins,
    parse_design,
    parse_structure,
    projector_norms,
    reconstruct,
    relabel_levels,
    resolution_and_strength,
    verify_invariance,
)
from wordlength import invariance, render
from wordlength.cli import main
from wordlength.design import _DENSE_TALLY_CELLS_PER_CODE, _MAX_INT64_ROOT
from wordlength.groups import DENSE_TABLE_CAP, cyclic_character_table
from wordlength.invariance import _scaled_projector_norms
from wordlength.kron import factored_apply
from wordlength.render import (
    _layout_values,
    _load_report,
    _read_values,
    _write_spectrum,
    dumps,
    fmt_float,
)
from wordlength.spectra import (
    RECONSTRUCT_TOL,
    _PrefixWalk,
    _apply_parts,
    _quarter_step,
    assignment_character_table,
    element_weights,
    weight,
)

MAX_SPACE = 4096
SIZES = (1, 2, 3, 4, 6, 8, 9)
# No whitespace, "|", "#" or ":", which the design-file syntax reserves;
# ANY_SYMBOLS draws those for serialize's refusals.
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
def sizes(draw, pool=SIZES) -> tuple[int, ...]:
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    while math.prod(chosen) > MAX_SPACE:
        chosen.pop()
    return tuple(chosen)


# Small multiplicities, and ones past 2^53 (not exact as floats) whose sums
# can pass 2^63 (not exact as int64).
MULTIPLICITIES = st.one_of(st.integers(1, 4), st.integers(2**53, 2**62))


@st.composite
def designs(draw, symbols=None, multiplicities=st.integers(1, 4), pool=SIZES) -> Design:
    """Numeric alphabets 0..s-1, or ``symbols`` drawn from that strategy."""
    shape = draw(sizes(pool))
    if symbols is not None:
        levels = tuple(
            tuple(draw(st.lists(symbols, min_size=s, max_size=s, unique=True))) for s in shape
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
def designs_with_assignment(draw, multiplicities=st.integers(1, 4)):
    design = draw(designs(multiplicities=multiplicities))
    assignment = tuple(draw(st.sampled_from(enumerate_structures(s))) for s in design.sizes)
    return design, assignment


@PROPERTY
@given(designs_with_assignment())
def test_reconstruct_inverts_the_transform(case):
    design, assignment = case
    assert reconstruct(j_characteristics(design, assignment)) == dict(design.counts)


@PROPERTY
@given(designs_with_assignment(MULTIPLICITIES))
@example(  # float64 rounds these counts to 2**53 and 2**53 + 4, whose total is still N
    (Design((("0", "1"),), {(0,): 2**53 + 1, (1,): 2**53 + 3}), (parse_structure("2"),))
)
def test_reconstruct_gives_the_design_or_refuses(case):
    # In-process, with no report between: never other counts, past 2**53 too.
    design, assignment = case
    parts = [order for structure in assignment for order in structure.cyclic_orders]
    try:
        counts = reconstruct(j_characteristics(design, assignment))
    except InconsistentSpectrumError:
        assert not (set(parts) <= {2, 4} and design.n_runs <= 2**53)
        return
    assert counts == dict(design.counts)


# Factor sizes with structures whose cyclic parts all have order 2 or 4.
QUARTER_TURN_SIZES = (1, 2, 4, 8, 16)


@st.composite
def quarter_turn_cases(draw):
    """A design with N < 2**53 under structures of parts of order 2 and 4 only."""
    # At most 12 entries of at most 2**49 each.
    multiplicities = st.one_of(st.integers(1, 4), st.integers(2**48, 2**49))
    design = draw(designs(multiplicities=multiplicities, pool=QUARTER_TURN_SIZES))
    splits = [
        [split for split in enumerate_structures(s) if set(split.cyclic_orders) <= {2, 4}]
        for s in design.sizes
    ]
    return design, tuple(draw(st.sampled_from(choices)) for choices in splits)


@PROPERTY
@given(quarter_turn_cases())
@example(  # N = 2**53, the largest that takes the exact steps
    (
        Design((tuple("0123"), ("0", "1")), {(0, 0): 2**53 - 3, (1, 1): 2, (3, 0): 1}),
        (parse_structure("4"), parse_structure("2")),
    )
)
def test_reconstruct_is_exact_under_parts_of_order_2_and_4(case):
    design, assignment = case
    assert reconstruct(j_characteristics(design, assignment), tol=0) == dict(design.counts)


@st.composite
def huge_count_cases(draw):
    """A design of counts up to 10**15, so N may pass 5e10 and 2**53, and an
    assignment; in about half of them every part has order 2 or 4."""
    quarter = draw(st.booleans())
    pool = QUARTER_TURN_SIZES if quarter else SIZES
    design = draw(designs(multiplicities=st.integers(1, 10**15), pool=pool))
    splits = [
        [split for split in enumerate_structures(s) if set(split.cyclic_orders) <= {2, 4}]
        if quarter else enumerate_structures(s)
        for s in design.sizes
    ]
    return design, tuple(draw(st.sampled_from(choices)) for choices in splits)


@PROPERTY
@given(huge_count_cases())
@example(  # N = 2**53 - 1, the largest whose report holds every part whole
    (
        Design((tuple("0123"), ("0", "1")), {(0, 0): 2**53 - 4, (1, 1): 2, (3, 0): 1}),
        (parse_structure("4"), parse_structure("2")),
    )
)
@example(  # counts past 2**53, which float64 rounds to 2**53 and 2**53 + 4
    (Design((("0", "1"),), {(0,): 2**53 + 1, (1,): 2**53 + 3}), (parse_structure("2"),))
)
def test_a_report_reconstructs_to_its_design_or_is_refused(case):
    # jchar --json then reconstruct, in-process: never other counts, and the
    # design's own whenever its parts are exact and the report holds them whole.
    design, assignment = case
    jchar = j_characteristics(design, assignment)
    data = "".join(render.jchar_report({}, design.levels, jchar, "factorized")).encode("ascii")
    read, _ = render.read_jchar_report(data, "report")
    parts = [order for structure in jchar.structures for order in structure.cyclic_orders]
    try:
        counts = reconstruct(read)
    except InconsistentSpectrumError:
        assert not (set(parts) <= {2, 4} and design.n_runs < 2**53)
        return
    assert counts == dict(design.counts)


@st.composite
def two_and_four_level_designs(draw) -> Design:
    """k = 2..5 factors of 2 or 4 levels, up to 60 entries of multiplicity 1..49."""
    shape = draw(st.lists(st.sampled_from((2, 4)), min_size=2, max_size=5))
    run = st.tuples(*(st.integers(0, s - 1) for s in shape))
    entries = draw(st.lists(st.tuples(run, st.integers(1, 49)), min_size=1, max_size=60))
    return Design(tuple(tuple(map(str, range(s))) for s in shape), dict(entries))


@PROPERTY
@given(two_and_four_level_designs())
def test_sweeps_over_parts_of_order_2_and_4_give_the_margin_pattern_exactly(design):
    report, margin = verify_invariance(design, "all"), gwlp_margin(design)
    assert all(gwlp == margin for gwlp in report.gwlps)
    assert report.max_deviation == 0


def reconstructed_cells(structures, values, n_runs) -> np.ndarray:
    """``reconstruct``'s cells, conj(H conj(chi)) / s by the same part steps."""
    parts = [d for structure in structures for d in structure.cyclic_orders]
    transformed = _apply_parts(np.conj(values), parts, n_runs).reshape(-1)
    return np.conj(transformed) / len(values)


def reconstruct_under(structures, values, n_runs, tol=RECONSTRUCT_TOL):
    """Reference reading of ``values`` under ``structures``, one cell at a time.

    Its cells are ``reconstruct``'s, so they agree bit for bit and so must the
    first bad cell and its message.
    """
    orders = [structure.order for structure in structures]
    counts = {}
    for index, cell in enumerate(reconstructed_cells(structures, values, n_runs)):
        mult = round(cell.real)
        if not abs(cell - mult) <= tol:
            raise InconsistentSpectrumError(
                f"cell {index} reconstructs to {cell}, not an integer within {tol}"
            )
        if mult < 0:
            raise InconsistentSpectrumError(
                f"cell {index} reconstructs to negative multiplicity {mult}"
            )
        if mult:
            counts[digits_of(index, orders)] = mult
    if sum(counts.values()) != n_runs:
        raise InconsistentSpectrumError(
            f"spectrum reconstructs to {sum(counts.values())} runs, not its n_runs {n_runs}"
        )
    return counts


@PROPERTY
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example([5, 7, 6], False, 0)
@example([5, 7, 6], True, 0)
def test_factored_apply_matches_the_tensordot_loop_bit_for_bit(orders, adjoint, seed):
    while math.prod(orders) > MAX_SPACE:
        orders = orders[:-1]
    tables = [cyclic_character_table(d) for d in orders]  # forward part tables, as j_characteristics
    if adjoint:  # and the adjoints reconstruct applies
        tables = [t.conj().T for t in tables]
    rng = np.random.default_rng(seed)
    size = math.prod(orders)
    for v in (rng.integers(0, 5, size), rng.standard_normal(size) + 1j * rng.standard_normal(size)):
        out, ref = factored_apply(tables, v), tensordot_apply(tables, v)
        assert np.array_equal(out.view(np.float64), ref.view(np.float64))


@PROPERTY
@given(designs_with_assignment(), st.data())
def test_repaired_spectrum_reads_under_its_new_assignment(case, data):
    design, assignment = case
    other = tuple(data.draw(st.sampled_from(enumerate_structures(n))) for n in design.sizes)
    jchar = j_characteristics(design, assignment)
    outcomes = []
    for read in (
        lambda: reconstruct(JCharVector(jchar.values, jchar.n_runs, other)),
        lambda: reconstruct_under(other, jchar.values, jchar.n_runs),
    ):
        try:
            outcomes.append(read())
        except InconsistentSpectrumError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    # An independent route to the same cells: the adjoint part tables.
    adjoints = [table.conj().T for table in part_tables(other)]
    reference = factored_apply(adjoints, jchar.values) / len(jchar.values)
    cells = reconstructed_cells(other, jchar.values, jchar.n_runs)
    assert np.allclose(cells, reference, rtol=1e-12, atol=1e-12 * jchar.n_runs)


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
@given(designs(SYMBOLS))
def test_serialize_round_trips(design):
    assert parse_design(design.serialize()) == design


# Colons, which only a first run line may not hold, symbols like "x2" that
# read as a multiplier elsewhere, and empty ones or ones with whitespace, "#"
# or "|", which no file holds.
ANY_SYMBOLS = st.one_of(
    st.text(alphabet="ax2_:", min_size=1, max_size=3),
    st.text(alphabet="ax \t#|", max_size=2),
    st.text(max_size=2),
)


@PROPERTY
@given(designs(ANY_SYMBOLS))
def test_serialize_refuses_what_would_not_parse_back(design):
    try:
        text = design.serialize()
    except ValueError:
        return
    assert parse_design(text) == design


def used_symbols_only(design: Design) -> Design:
    """The design a header-less file gives: alphabets are the sorted used symbols."""
    used = [sorted({design.levels[i][run[i]] for run in design.counts}) for i in range(design.k)]
    counts = {
        tuple(used[i].index(design.levels[i][r]) for i, r in enumerate(run)): mult
        for run, mult in design.counts.items()
    }
    return Design(tuple(map(tuple, used)), counts)


SPACES = st.sampled_from([" ", "  ", "\t", " \t "])
COMMENTS = st.sampled_from(["", "#", "# x2 a | b", "#levels: 2"])


@PROPERTY
@pytest.mark.parametrize(
    "header, columns",
    [("symbols", False), ("levels", False), ("none", False),
     ("symbols", True), ("levels", True), ("none", True)],
    ids=["symbols", "levels", "none", "columns", "columns-levels", "columns-none"],
)
@given(data=st.data())
def test_shuffled_split_run_lines_parse_back(header, columns, data):
    """A design rendered with its repeats split between repeated lines and
    x<m> (rows) or repeated columns, shuffled, commented and unevenly spaced,
    parses back to the design its multiset builds."""
    design = data.draw(designs(None if header == "levels" else SYMBOLS))
    lines = []  # (symbols, multiplier or None for a bare line)
    for run, mult in design.counts.items():
        symbols = [design.levels[i][r] for i, r in enumerate(run)]
        cuts = data.draw(st.sets(st.integers(1, mult - 1))) if mult > 1 else set()
        bounds = [0, *sorted(cuts), mult]
        for part in (b - a for a, b in zip(bounds, bounds[1:])):
            if columns or data.draw(st.booleans()):
                lines += [(symbols, None)] * part  # repeated lines
            else:
                lines.append((symbols, part))
    lines = data.draw(st.permutations(lines))
    if header == "none" and lines[0][1] is None:
        lines[0] = (lines[0][0], 1)  # the first line's count of symbols sets k
    headers = {  # as tokens, like the run lines
        "symbols": [["symbols:", *" | ".join(" ".join(a) for a in design.levels).split()]],
        "levels": [["levels:", *map(str, design.sizes)]],
        "none": [],
    }[header]
    if columns:
        headers.append(["layout:", "columns"])
        body = [list(column) for column in zip(*(s for s, _ in lines))]
    else:
        body = [symbols + ([] if mult is None else [f"x{mult}"]) for symbols, mult in lines]
    text = ""
    for tokens in data.draw(st.permutations(headers)) + body:
        text += data.draw(COMMENTS) + "\n" if data.draw(st.booleans()) else ""
        text += data.draw(SPACES).join(["", *tokens, data.draw(COMMENTS)]) + "\n"
    expected = used_symbols_only(design) if header == "none" else design
    assert parse_design(text) == expected


@PROPERTY
@given(designs(SYMBOLS), st.data())
def test_a_bad_line_planted_several_times_is_reported_at_the_first(design, data):
    header, *lines = design.serialize().splitlines()
    lines += data.draw(st.lists(st.sampled_from(lines), max_size=6))  # repeated good lines
    lines = data.draw(st.permutations(lines))
    symbols = [design.levels[i][r] for i, r in enumerate(next(iter(design.counts)))]
    bad, message = data.draw(
        st.sampled_from(
            [  # "?" is in no alphabet
                (["?", *symbols[1:]], "symbol '?' not in factor 1's alphabet"),
                ([*symbols, "?", "?"], f"expected {design.k} symbols, got {design.k + 2}"),
                ([*symbols, "x0"], "multiplier must be at least 1"),
                # A multiplier is x and ASCII digits; \d would read these as 3.
                ([*symbols, "x\u0663"], f"expected {design.k} symbols, got {design.k + 1}"),
                ([*symbols, "x\uff13"], f"expected {design.k} symbols, got {design.k + 1}"),
            ]
        )
    )
    positions = data.draw(st.lists(st.integers(0, len(lines)), min_size=1, max_size=4))
    for position in sorted(positions, reverse=True):
        lines.insert(position, " ".join(bad))
    with pytest.raises(DesignParseError) as err:
        parse_design("\n".join([header, *lines]))
    assert str(err.value) == f"line {min(positions) + 2}: {message}"


@PROPERTY
@given(st.data())
def test_relabelling_levels_keeps_the_margin_gwlp(data):
    design = data.draw(designs())
    perms = [data.draw(st.permutations(range(s))) for s in design.sizes]
    assert gwlp_margin(relabel_levels(design, perms)) == gwlp_margin(design)


@st.composite
def capped_designs(draw) -> tuple[Design, int]:
    """A design on k <= 4 factors of 2-5 levels, every cell counted 0..c, and
    c <= 3, with some cell counted above 0 and some below c."""
    shape = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    c = draw(st.integers(1, 3))
    cells = list(itertools.product(*map(range, shape)))
    mults = draw(st.lists(st.integers(0, c), min_size=len(cells), max_size=len(cells)))
    assume(max(mults) > 0 and min(mults) < c)
    levels = [tuple(map(str, range(s))) for s in shape]
    return Design(levels, {cell: m for cell, m in zip(cells, mults) if m}), c


@PROPERTY
@given(capped_designs())
def test_a_complement_keeps_every_projector_norm_exactly(case):
    # c·1 − m negates chi at every element but the identity, so each nonempty
    # subset's s·||M_J U O||^2 is the same integer on the margin route.
    design, c = case
    norms = [_scaled_projector_norms(d).tolist() for d in (design, complement(design, c))]
    assert norms[0][1:] == norms[1][1:]


@PROPERTY
@given(capped_designs(), st.data())
def test_a_complement_keeps_every_scaled_class_sum(case, data):
    # The same on the character route under any assignment: N^2 A_j for j >= 1.
    design, c = case
    assignment = [data.draw(st.sampled_from(enumerate_structures(s))) for s in design.sizes]
    scaled = [
        np.array(gwlp_char(j_characteristics(d, assignment))) * d.n_runs**2
        for d in (design, complement(design, c))
    ]
    bound = 1e-9 * (c * design.space_size) ** 2
    np.testing.assert_allclose(scaled[0][1:], scaled[1][1:], rtol=0, atol=bound)


@st.composite
def linear_codes(draw) -> tuple[list[list[int]], int, list[int]]:
    """A random r x n generator matrix over Z_q, q in {2, 3, 4, 5}, r <= 3, n <= 6,
    and a shift in Z_q^n, which moves the code to one of its cosets."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n, r = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=r, max_size=r)), q, draw(row)


@PROPERTY
@given(linear_codes(), st.data())
def test_a_linear_code_coset_has_the_dual_weights_on_every_route(case, data):
    # Each route's N^2 A_j is N^2 times the dual's weight count: exactly where
    # N is a power of 2, and rounded to it where N is a power of 3 or 5.  It
    # stays so when the levels are relabelled, which need not leave a coset.
    generator, q, shift = case
    code = linear_code(generator, q, shift)
    n_squared = code.n_runs**2
    expected = [n_squared * count for count in dual_weights(generator, q)]
    perms = [data.draw(st.permutations(range(q))) for _ in range(code.k)]
    other = [data.draw(st.sampled_from(enumerate_structures(q))) for _ in range(code.k)]
    cyclic = [str(q)] * code.k
    algorithms = ["factorized", "dense"] if q**code.k <= DENSE_TABLE_CAP else ["factorized"]
    for design in (code, relabel_levels(code, perms)):
        patterns = []
        for runs_per_subset in (0, 2**30):  # the margin kernel, then the pair kernel
            with mock.patch.object(invariance, "_PAIR_RUNS_PER_SUBSET", runs_per_subset):
                patterns.append(gwlp_margin(design))
        patterns += [gwlp_char(j_characteristics(design, cyclic, a)) for a in algorithms]
        patterns.append(gwlp_char(j_characteristics(design, other)))
        for pattern in patterns:
            scaled = [a * n_squared for a in pattern]
            assert (scaled if q in (2, 4) else [round(a) for a in scaled]) == expected


@PROPERTY
@given(linear_codes())
def test_a_linear_code_has_chi_n_on_its_dual_and_zero_elsewhere(case):
    # Under Z_q on every factor, chi_v sums a character of Z_q^r over all of
    # it, times the character at the shift, so |chi_v| is N or 0.
    generator, q, shift = case
    design = linear_code(generator, q, shift)
    digits, _ = yates_elements([q] * design.k)
    on_dual = ~(digits @ np.array(generator).T % q).any(axis=1)
    values = j_characteristics(design, [str(q)] * design.k).values
    np.testing.assert_allclose(
        np.abs(values), design.n_runs * on_dual, rtol=0, atol=1e-9 * design.n_runs
    )
    assert on_dual.sum() == sum(dual_weights(generator, q))


@PROPERTY
@given(st.data())
def test_margin_counts_match_a_dict_count(data):
    design = data.draw(designs(multiplicities=MULTIPLICITIES))
    subset = data.draw(st.sets(st.integers(0, design.k - 1)))  # may be empty
    table = margins(design, subset)
    assert list(table.items()) == sorted(naive_margin_counts(design, subset).items())
    assert table.subset == tuple(sorted(subset))
    assert table.sizes == tuple(design.sizes[i] for i in sorted(subset))


@st.composite
def tally_threshold_cases(draw) -> tuple[int, tuple[int, int]]:
    """n codes and two factor sizes whose cells are 1 fewer than, as many as
    or 1 more than the most the dense tally takes for n codes."""
    n = draw(st.integers(1, 40))
    cells = _DENSE_TALLY_CELLS_PER_CODE * n + draw(st.sampled_from([-1, 0, 1]))
    first = draw(st.sampled_from([d for d in range(1, cells + 1) if cells % d == 0]))
    return n, (first, cells // first)


def spy_dense_tally():
    """Record whether _tally takes its dense path, the only caller of np.add.at
    in design.py: the ``at`` of the mock it returns is called if so."""
    return mock.patch.object(np, "add", wraps=np.add)


@PROPERTY
@given(tally_threshold_cases(), st.integers(1, 3), st.data())
def test_margin_tally_is_exact_on_both_sides_of_the_dense_threshold(case, extra, data):
    n, sizes = case
    shape = (*sizes, extra)  # the extra factor lets distinct runs share a margin cell
    flat = data.draw(st.sets(st.integers(0, math.prod(shape) - 1), min_size=n, max_size=n))
    mults = data.draw(st.lists(MULTIPLICITIES, min_size=n, max_size=n))
    runs = [tuple(map(int, np.unravel_index(f, shape))) for f in sorted(flat)]
    design = Design([list(map(str, range(s))) for s in shape], dict(zip(runs, mults)))
    with spy_dense_tally() as dense:
        table = margins(design, (0, 1))
    assert list(table.items()) == sorted(naive_margin_counts(design, (0, 1)).items())
    int64 = design._run_matrix[1].dtype == np.int64  # Python-int totals always sort
    assert dense.at.called == (int64 and math.prod(sizes) <= _DENSE_TALLY_CELLS_PER_CODE * n)


@PROPERTY
@given(tally_threshold_cases(), st.booleans(), st.data())
def test_parse_merges_runs_on_both_sides_of_the_dense_threshold(case, columns, data):
    n, sizes = case
    run = st.tuples(*(st.integers(0, s - 1) for s in sizes))
    runs = data.draw(st.lists(run, min_size=n, max_size=n))
    expected: Counter[tuple[int, ...]] = Counter()
    lines = []
    for j, run in enumerate(runs):
        # Row layout writes the m-th copy of a run with x<m>: n distinct lines, one code each.
        mult = 1 if columns else runs[: j + 1].count(run)
        lines.append(" ".join(map(str, run)) + (f" x{mult}" if mult > 1 else ""))
        expected[run] += mult
    if columns:
        lines = ["layout: columns", *(" ".join(map(str, factor)) for factor in zip(*runs))]
    with spy_dense_tally() as dense:
        design = parse_design(f"levels: {sizes[0]} {sizes[1]}\n" + "\n".join(lines) + "\n")
    assert dict(design.counts) == expected
    assert dense.at.called == (math.prod(sizes) <= _DENSE_TALLY_CELLS_PER_CODE * n)


@PROPERTY
@given(designs(multiplicities=MULTIPLICITIES))
def test_margin_gwlp_is_the_correctly_rounded_exact_pattern(design):
    assert gwlp_margin(design).raw == tuple(float(a) for a in exact_gwlp(design))


@PROPERTY
@given(
    st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1, max_size=3),
    st.integers(1, 2**40),
    st.integers(0, 2**64 - 1),
)
@example(shape=[2], base=100_000, bumps=0b10)
def test_zero_tol_resolution_is_exact_on_near_balanced_designs(shape, base, bumps):
    # Cell i of the full factorial counted base + bit i of bumps: the A_j are
    # of order 1 / base^2, below any fixed positive tolerance.
    cells = list(itertools.product(*map(range, shape)))
    counts = {cell: base + (bumps >> i & 1) for i, cell in enumerate(cells)}
    design = Design(tuple(tuple(map(str, range(s))) for s in shape), counts)
    exact = exact_gwlp(design)
    resolution = next((j for j in range(1, design.k + 1) if exact[j] > 0), None)
    strength = design.k if resolution is None else resolution - 1
    assert resolution_and_strength(gwlp_margin(design), 0) == (resolution, strength)


@PROPERTY
@given(designs(multiplicities=MULTIPLICITIES))
def test_scaled_subset_norms_are_exact_pair_sums(design):
    # s * B_K for bitmask K, through the one-to-one scale-and-invert step, so
    # subset by subset: the pattern alone would not notice two subsets of one
    # size swapped.
    subsets = [[i for i in range(design.k) if mask >> i & 1] for mask in range(1 << design.k)]
    scaled = [pair_subset_norm(design, K) for K in subsets]
    assert _scaled_projector_norms(design).tolist() == mobius_alternating_list(scaled, design.k)


KERNEL_SIZES = (1, 2, 3, 4, 8, 9, 12)


@st.composite
def kernel_designs(draw) -> Design:
    """Up to 8 factors and 300 distinct runs, with N below, at or past _MAX_INT64_ROOT."""
    shape = tuple(draw(st.lists(st.sampled_from(KERNEL_SIZES), min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drawn = draw(st.integers(1, 300))
    runs = map(tuple, np.array([rng.integers(0, s, drawn) for s in shape]).T.tolist())
    counts = dict.fromkeys(runs, 1)
    mults = draw(st.sampled_from(["small", "guard", "huge"]))
    if mults == "small":
        counts = {run: int(rng.integers(1, 5)) for run in counts}
    elif mults == "guard":  # N is _MAX_INT64_ROOT - 1, + 0 or + 1
        offset = draw(st.integers(-1, 1))
        counts[next(iter(counts))] += _MAX_INT64_ROOT + offset - len(counts)
    else:  # N past int64 too
        counts = {run: int(rng.integers(2**53, 2**62)) for run in counts}
    return Design(tuple(tuple(map(str, range(s))) for s in shape), counts)


@PROPERTY
@given(kernel_designs(), st.sampled_from([16, 256, 2**16]))
def test_pair_and_margin_kernels_give_the_same_integers(design, block_cells):
    # Both kernels, whichever the switch would pick; small blocks split the
    # pairs into many blocks, down to one row each.
    with mock.patch.object(invariance, "DENSE_BLOCK_ENTRIES", block_cells):
        pairs = invariance._pair_subset_norms(design)
    assert pairs.tolist() == invariance._margin_subset_norms(design).tolist()


@PROPERTY
@given(designs(multiplicities=MULTIPLICITIES))
def test_projector_norms_are_never_negative(design):
    assert min(projector_norms(design)) >= 0


@st.composite
def latin_squares(draw) -> Design:
    """An OA(s^2, 3, s, 2) from a cyclic Latin square with permuted levels.

    Its weight-1 and weight-2 J-characteristics vanish under every
    assignment, so spectra first differ at weight 3, often at one element
    for several assignments and by different amounts there.
    """
    s = draw(st.sampled_from((4, 8, 9)))
    rows, cols, symbols = (draw(st.permutations(range(s))) for _ in range(3))
    runs = [(rows[a], cols[b], symbols[(a + b) % s]) for a in range(s) for b in range(s)]
    return Design((tuple(map(str, range(s))),) * 3, dict.fromkeys(runs, 1))


@st.composite
def witness_sweeps(draw):
    """A design on 4-, 8- and 9-level factors, with "all" or an explicit
    assignment list in which one assignment appears again later."""
    if draw(st.booleans()):
        design = draw(latin_squares())
    else:
        shape = draw(st.lists(st.sampled_from((4, 8, 9)), min_size=1, max_size=3))
        run = st.tuples(*(st.integers(0, s - 1) for s in shape))
        counts = Counter(draw(st.lists(run, min_size=1, max_size=12)))
        design = Design(tuple(tuple(map(str, range(s))) for s in shape), counts)
    if draw(st.booleans()):
        return design, "all"
    assignment = st.tuples(*(st.sampled_from(enumerate_structures(s)) for s in design.sizes))
    assignments = draw(st.lists(assignment, min_size=1, max_size=5))
    again = draw(st.sampled_from(assignments))
    assignments.insert(draw(st.integers(assignments.index(again) + 1, len(assignments))), again)
    return design, assignments


@PROPERTY
@given(witness_sweeps())
def test_invariance_witness_is_the_full_scan_witness(case):
    design, assignments = case
    assert verify_invariance(design, assignments).witness == full_scan_witness(design, assignments)


@st.composite
def crossed_designs(draw):
    """A factor of 3, 5 or 7 levels crossed in full with one or two of 4 to 12
    levels, each run counted by its first level alone, at most 2**53 / s, so
    N <= 2**53.  Then chi_g = 0 under every group wherever g has a nonzero later component."""
    shape = [draw(st.sampled_from((3, 5, 7)))]
    shape += draw(st.lists(st.sampled_from((4, 6, 8, 9, 12)), min_size=1, max_size=2))
    limit = 2**53 // math.prod(shape)
    counts = draw(st.lists(st.integers(1, limit), min_size=shape[0], max_size=shape[0]))
    runs = itertools.product(*map(range, shape))
    return Design(tuple(tuple(map(str, range(n))) for n in shape), {r: counts[r[0]] for r in runs})


@settings(max_examples=300, deadline=None)
@given(crossed_designs(), st.sampled_from(["factorized", "dense"]))
def test_no_float_residue_counts_as_a_value_at_any_n(design, algorithm):
    # The differences and the zeros here are float residues, which grow with N.
    report = verify_invariance(design)
    assert report.witness is None
    zeros = [0] * (design.k - 1)
    labels = {render.element_label(design.levels, (a, *zeros)) for a in range(design.sizes[0])}
    for assignment in report.assignments:
        text = render.jchar_text(design.levels, j_characteristics(design, assignment, algorithm))
        assert {line.split(" ")[0] for line in text.splitlines()} <= labels


# Orders whose structures split as 2x2, 4x2, 2x2x2, 3x3, 4x4 and 2x2x2x2, so
# that a later factor is often split otherwise than in the previous assignment.
WALK_SIZES = (2, 3, 4, 6, 8, 9, 12, 16)


@st.composite
def prefix_sweeps(draw, sizes=WALK_SIZES):
    """A design with "all", or an explicit assignment list in shuffled order
    with repeats, so that the shared prefix also moves backwards."""
    shape = draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=5))
    while math.prod(shape) > MAX_SPACE:
        shape.pop()
    run = st.tuples(*(st.integers(0, s - 1) for s in shape))
    counts = Counter(draw(st.lists(run, min_size=1, max_size=12)))
    design = Design(tuple(tuple(map(str, range(s))) for s in shape), counts)
    if draw(st.booleans()):
        return design, "all"
    every = list(itertools.product(*(enumerate_structures(s) for s in shape)))
    picked = draw(st.lists(st.sampled_from(every), min_size=1, max_size=10))
    picked += draw(st.lists(st.sampled_from(picked), min_size=1, max_size=4))
    return design, draw(st.permutations(picked))


@PROPERTY
@given(prefix_sweeps())
@example(
    (
        Design((("0", "1", "2", "3"), tuple(map(str, range(16)))), {(1, 5): 2, (3, 14): 1}),
        [("4", "4x4"), ("4", "2x2x2x2"), ("2x2", "16"), ("4", "4x4"), ("4", "2x2x2x2")],
    )
)
def test_prefix_walk_spectra_are_the_one_shot_spectra_bit_for_bit(case):
    design, assignments = case
    walked = []

    def spy(*args, **kwargs):
        jchar = j_characteristics(*args, **kwargs)
        walked.append((kwargs.get("walk"), jchar))
        return jchar

    with mock.patch.object(invariance, "j_characteristics", spy):
        report = verify_invariance(design, assignments)
    for walk, jchar in walked:
        assert walk is not None
        one_shot = j_characteristics(design, jchar.structures)
        assert np.array_equal(jchar.values.view(np.float64), one_shot.values.view(np.float64))
    for gwlp, assignment in zip(report.gwlps, report.assignments, strict=True):
        assert gwlp == gwlp_char(j_characteristics(design, assignment))
    assert report.witness == full_scan_witness(design, assignments)


# One-level factors have no parts; 3, 6, 9 and 12 levels always have a part
# of another order than 2 or 4, and 4, 8 and 16 do only under some splits.
# So the exact steps stop at the first part, partway through, or never.
EXACT_RUN_SIZES = (1, 2, 3, 4, 6, 8, 9, 12, 16)


@PROPERTY
@given(prefix_sweeps(EXACT_RUN_SIZES))
@example(  # the steps stop after one part, before the last one
    (Design((("0", "1", "2", "3"), ("0", "1", "2")), {(1, 2): 2, (3, 0): 1}), [("4", "3"), ("2x2", "3")])
)
@example(  # every part is exact; the walk resumes a flat prefix under another split
    (
        Design((("0", "1"), tuple(map(str, range(16)))), {(1, 5): 2, (0, 14): 1}),
        [("2", "4x4"), ("2", "2x2x2x2"), ("2", "16"), ("2", "4x2x2"), ("2", "4x4")],
    )
)
def test_walk_and_one_shot_spectra_are_the_table_route_spectra(case):
    design, assignments = case
    counts = design.dense_counts().astype(np.complex128)
    walk = _PrefixWalk(design)
    for structures in invariance.expand_assignments(design, assignments):
        reference = factored_apply(part_tables(structures), counts).view(np.float64)
        for walked in (walk, None):
            jchar = j_characteristics(design, structures, walk=walked)
            assert np.array_equal(jchar.values.view(np.float64), reference)


@st.composite
def gaussian_columns(draw):
    """A (4, m) array of Gaussian integers, m from 1 to 4096, whose parts are at
    most 2**50 in magnitude: each column's |re| + |im| adds up to at most 2**53."""
    m, bits = draw(st.integers(1, 4096)), draw(st.integers(0, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    re, im = rng.integers(-(2**bits), 2**bits, size=(2, 4, m), endpoint=True)
    return re + 1j * im


@PROPERTY
@given(gaussian_columns())
@example(np.full((4, 3), 2**50 * (1 + 1j)))  # every column at the bound
@example(2**50 * np.array([[1, -1j], [1j, 1], [-1, 1j], [-1j, -1]]))
def test_quarter_turn_step_is_the_butterfly_as_numbers(columns):
    flat = columns.reshape(-1)
    assert np.array_equal(_quarter_step(flat, 4), quarter_turn_butterfly(flat))


@PROPERTY
@given(
    st.lists(st.sampled_from(["1", "2", "4", "2x2"]), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example(["2"] * 8, 0, True)
@example(["1", "4", "1", "2x2", "1"], 0, True)
def test_exact_class_sums_are_the_bincount_sums(literals, seed, at_bound):
    # One-level factors leave the top weight classes empty; N is at most
    # sqrt(2**53 / s), so every spectrum here takes the exact class sums.
    structures = tuple(map(parse_structure, literals))
    s = math.prod(structure.order for structure in structures)
    rng = np.random.default_rng(seed)
    top = math.isqrt(2**53 // s)
    n_runs = top if at_bound else int(rng.integers(1, top, endpoint=True))
    re, im = rng.integers(-(n_runs // 2), n_runs // 2, (2, s), endpoint=True)
    values = re + 1j * im  # |re| + |im| <= N, so each class total is at most s * N^2
    power = values.real**2 + values.imag**2
    sums = np.bincount(element_weights(structures), power, minlength=len(structures) + 1)
    assert gwlp_char(JCharVector(values, n_runs, structures)).values == tuple(sums / n_runs**2)


# Factor sizes for dense spectra past the route's 2**16-entry block budget
# (s > 256) and up to 1,500, whose whole table is 37 MB: splits such as 2x2,
# 4x2, 3x3 and 4x4, odd primes, and a prime part past 256 levels.
DENSE_BLOCK_SIZES = (2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 257)


@st.composite
def dense_case(draw, shape):
    run = st.tuples(*(st.integers(0, s - 1) for s in shape))
    counts = Counter(draw(st.lists(run, min_size=1, max_size=12)))
    design = Design(tuple(tuple(map(str, range(s))) for s in shape), counts)
    return design, tuple(draw(st.sampled_from(enumerate_structures(s))) for s in shape)


@st.composite
def blocked_dense_cases(draw):
    """A design with 256 < s <= 1500 and a random structure per factor."""
    shape: list[int] = []
    while math.prod(shape) <= 256:
        room = [d for d in DENSE_BLOCK_SIZES if math.prod(shape) * d <= 1500]
        shape.append(draw(st.sampled_from(room)))
    return draw(dense_case(shape))


@st.composite
def whole_dense_cases(draw):
    """A design with 1 <= s <= 256 (one block) and a random structure per factor."""
    factor_sizes = (1, *(d for d in DENSE_BLOCK_SIZES if d <= 256))
    shape = draw(st.lists(st.sampled_from(factor_sizes), min_size=1, max_size=6))
    while math.prod(shape) > 256:
        shape.pop()
    return draw(dense_case(shape))


def two_factor_case(a: int, b: int):
    design = Design((tuple(map(str, range(a))), tuple(map(str, range(b)))), {(1, 1): 2, (0, 0): 1})
    return design, (parse_structure(str(a)), parse_structure(str(b)))


@settings(max_examples=30, deadline=None)
@given(blocked_dense_cases())
@example(two_factor_case(181, 2))  # blocks of 61, 60 and 60 head rows (at most 90), 2 rows each
@example(two_factor_case(3, 509))  # the tail alone is past the budget: blocks of D * s entries
@example(two_factor_case(4, 260))  # a lone Z_4 head: its -i entries hold a real part of -0.0
def test_blocked_dense_spectra_are_the_whole_table_product_bit_for_bit(case):
    design, structures = case
    counts = design.dense_counts().astype(np.complex128)
    reference = assignment_character_table(structures) @ counts
    values = j_characteristics(design, structures, "dense").values
    assert np.array_equal(values.view(np.float64), reference.view(np.float64))


def one_factor_case(p: int):
    """One p-level factor with a run on every seventh level."""
    design = Design((tuple(map(str, range(p))),), {(j,): j % 3 + 1 for j in range(0, p, 7)})
    return design, (parse_structure(str(p)),)


@settings(max_examples=30, deadline=None)
@given(whole_dense_cases())
@example(one_factor_case(509))  # one part past 256 levels: blocks of its head rows
@example(one_factor_case(1021))
@example(one_factor_case(571))  # 571 rows in blocks of at most 114: none may have one row
@example(one_factor_case(512))  # the head is the part's own table, -0.0 real parts included
def test_small_and_one_part_dense_spectra_are_the_whole_table_product_bit_for_bit(case):
    design, structures = case
    counts = design.dense_counts().astype(np.complex128)
    reference = assignment_character_table(structures) @ counts
    values = j_characteristics(design, structures, "dense").values
    assert np.array_equal(values.view(np.float64), reference.view(np.float64))


# Floats that reach every branch of ".12g" with -0 dropped: signed zeros,
# subnormals, exponent forms on both sides, and exact ties at the 12th digit.
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.220446049250313e-16, -1e-16,
    1e20, -1e20, 1e-20, -1e-20, 1e12, 123456789012.5, 123456789013.5, -0.5, 1 / 3,
)
FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# Any non-empty text: multi-character, non-ASCII, quotes and control characters.
LABEL_SYMBOLS = st.text(min_size=1, max_size=3)
# Text that JSON writes without a short escape (\", \\, \b, \f, \n, \r, \t):
# non-ASCII and other control characters are written as \uXXXX.
LAYOUT_SYMBOLS = st.text(
    st.characters(exclude_characters='"\\\b\f\n\r\t'), min_size=1, max_size=3
)


@st.composite
def spectra(draw, parts=FINITE, symbols=LABEL_SYMBOLS, shape=None) -> functools.partial:
    if shape is None:
        shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    levels = tuple(
        tuple(draw(st.lists(symbols, min_size=s, max_size=s, unique=True))) for s in shape
    )
    column = st.lists(parts, min_size=math.prod(shape), max_size=math.prod(shape))
    values = np.empty(math.prod(shape), dtype=np.complex128)
    values.real, values.imag = draw(column), draw(column)  # no arithmetic: keeps -0.0
    return functools.partial(_write_spectrum, levels, values)


@st.composite
def repeating_spectra(draw) -> functools.partial:
    """Real and imaginary parts from one small pool, so values repeat across entries and parts."""
    pool = [0.0, -0.0, *draw(st.lists(FINITE, min_size=1, max_size=3))]
    return draw(spectra(st.sampled_from(pool)))


def assert_renders_as_its_list_of_entries(spectrum: functools.partial) -> None:
    entries = spectrum_entries(*spectrum.args)
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


@PROPERTY
@given(spectra(), st.sampled_from([1, 2, 3, 5, 7]))
def test_spectrum_in_small_blocks_renders_as_its_list_of_entries(spectrum, block):
    # Blocks of a few entries end inside a run of one head, or hold several.
    with mock.patch.object(render, "_BLOCK", block):
        assert_renders_as_its_list_of_entries(spectrum)


# Symbols of one ASCII character (labels concatenate them), of several (labels
# join them with ","), and non-ASCII ones, which JSON writes as \uXXXX escapes.
SPLIT_SYMBOLS = {
    "one": st.characters(min_codepoint=0x21, max_codepoint=0x7E, exclude_characters='"\\'),
    "several": st.text(st.sampled_from("ab,0"), min_size=2, max_size=3),
    "escaped": st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=2),
}


@st.composite
def split_spectra(draw) -> functools.partial:
    """Spectra of up to five factors of 1-4 levels, so at most 1024 entries,
    below one block of the writer, whose labels split into heads and tails
    at every factor; in half of them the last factor has one level."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    if draw(st.booleans()):
        shape[-1] = 1
    symbols = draw(st.sampled_from(sorted(SPLIT_SYMBOLS)))
    return draw(spectra(st.integers(-3, 3).map(float), SPLIT_SYMBOLS[symbols], shape))


def shaped_spectrum(shape, symbols) -> functools.partial:
    """The spectrum over alphabets of ``shape`` drawn in order from ``symbols``."""
    pool = iter(symbols)
    levels = tuple(tuple(next(pool) for _ in range(s)) for s in shape)
    index = np.arange(math.prod(shape))
    return functools.partial(_write_spectrum, levels, index % 5 - 2 + 1j * (index % 3))


@PROPERTY
@given(split_spectra(), st.sampled_from([1, 3, 16, render._BLOCK]))
@example(shaped_spectrum((4, 4, 4, 1), "abcdefghijkl0"), render._BLOCK)  # one-level last
@example(shaped_spectrum((2, 3, 2), ["lo", "hi", "a", "b", "c", "x,", "y"]), 3)  # "," joiner
@example(shaped_spectrum((3, 2, 2), "\u00e4\u00f6\u00fc\U0001f600xyz"), 16)  # \uXXXX escapes
@example(shaped_spectrum((1, 1), "ab"), render._BLOCK)  # s = 1
def test_spectrum_renders_as_its_list_of_entries_wherever_its_labels_split(spectrum, block):
    # The tails are the fewest trailing factors whose elements number at
    # least sqrt(s); blocks of a few entries end inside a run of one head.
    with mock.patch.object(render, "_BLOCK", block):
        assert_renders_as_its_list_of_entries(spectrum)


@st.composite
def integer_spectra(draw) -> functools.partial:
    """Integer parts, as floats, within ``span`` of a base anywhere up to 2**60:
    spans shorter than the spectrum, as long and longer, at magnitudes where
    floats hold every integer and past 2**53, where they do not."""
    base = draw(st.one_of(st.integers(-8, 8), st.integers(-(2**60), 2**60)))
    span = draw(st.integers(0, 80))
    return draw(spectra(st.integers(base, base + span).map(float)))


def one_factor_spectrum(re, im) -> functools.partial:
    """The spectrum over one factor with these real and imaginary parts."""
    values = np.empty(len(re), dtype=np.complex128)
    values.real, values.imag = re, im
    return functools.partial(_write_spectrum, (tuple(map(str, range(len(re)))),), values)


@PROPERTY
@given(integer_spectra())
@example(one_factor_spectrum([1e12, 1e12 + 1, 1e12 + 2], [-1e12, 1e12 - 1, 2e12]))  # "1e+12"
@example(one_factor_spectrum([2.0**53, -(2.0**53), -0.0], [-0.0, 0.0, 2.0**53 - 1]))
@example(one_factor_spectrum([2.0**53, 2.0**53 - 2, 2.0**53 + 2], [-(2.0**53), -0.0, 1.0]))
@example(one_factor_spectrum([-0.0, 0.0, 1.0], [-0.0, -1.0, -0.0]))
@example(one_factor_spectrum([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]))  # a span as long
@example(one_factor_spectrum([0.0, 1.0, 2.0, 4.0], [-4.0, 0.0, -1.0, -2.0]))  # one longer
@example(one_factor_spectrum([0.0, 1.0, 2.5, 3.0], [1.0, 0.5, 2.0, 1.0]))  # one non-integer
@example(one_factor_spectrum([3.0, 1e-300, 2.0], [-3.0, -1e-300, -2.0]))  # 1e-300 - (-3) is 3.0
def test_integer_spectrum_renders_as_its_list_of_entries(spectrum):
    assert_renders_as_its_list_of_entries(spectrum)


@PROPERTY
@given(spectra(symbols=LAYOUT_SYMBOLS), st.sampled_from([1, 2, 3, 7]), st.sampled_from([1, 100]))
def test_layout_reader_reads_what_the_writer_writes(spectrum, block, slice_chars):
    # One-level factors, and blocks and slices of a few entries or of one.
    levels, values = spectrum.args
    jchar = JCharVector(values, 1, [str(len(a)) for a in levels])
    with (
        mock.patch.object(render, "_BLOCK", block),
        mock.patch.object(render, "_SLICE", slice_chars),
    ):
        data = "".join(render.jchar_report({}, levels, jchar, "factorized")).encode("ascii")
        assert _layout_values(data, data.index(b'"values": ') + len(b'"values": ')) is not None
        read, symbols = render.read_jchar_report(data, "report")
    expected = _read_values(json.loads(data)["values"])
    assert read.values.view(np.float64).tobytes() == expected.view(np.float64).tobytes()
    assert symbols == [list(a) for a in levels]


@st.composite
def runs_over_symbols(draw) -> tuple[list[list[str]], set[int]]:
    """Alphabets of any text, one-level ones among them, and the Yates indices
    of distinct runs over them."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    levels = [draw(st.lists(LABEL_SYMBOLS, min_size=s, max_size=s, unique=True)) for s in shape]
    return levels, draw(st.sets(st.integers(0, math.prod(shape) - 1), min_size=1))


@PROPERTY
@given(runs_over_symbols())
@example(([['"'], ["\\", "\x01\u2028"], ["\U0001f600"]], {0, 1}))
def test_reconstruct_report_renders_as_its_list_of_runs(case):
    # Symbols with quotes, backslashes, control and non-ASCII characters, and
    # the runs in the order reconstruct returns them.
    levels, cells = case
    shape = [len(a) for a in levels]
    design = Design(levels, {digits_of(c, shape): c % 3 + 1 for c in cells})
    jchar = j_characteristics(design, [str(s) for s in shape])
    counts = reconstruct(jchar)
    payload = {  # the list of one dict per run that the report held before it was written in bulk
        "groups": [str(s) for s in shape],
        "n_runs": design.n_runs,
        "counts": [
            {"run": [levels[i][r] for i, r in enumerate(run)], "multiplicity": mult}
            for run, mult in sorted(design.counts.items())
        ],
    }
    assert render.reconstruct_report(jchar, levels, counts) == dumps(payload) + "\n"


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


# An all-int list and a mixed one take different conversion paths in numpy.
@PROPERTY
@given(
    st.one_of(
        st.lists(st.tuples(JSON_NUMBERS, JSON_NUMBERS), max_size=20),
        st.lists(st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)), max_size=20),
    )
)
@example([(2**53 + 1, -0.0), (2**63, 5e-324), (2**63 + 1, -1e-310), (-(2**63) - 1, 1e308)])
@example([(2**53 + 1, 2**63), (2**63 + 1, -(2**63) - 1), (2**64 + 3, -(2**53) - 1)])
def test_report_values_read_as_the_list_assignment_bit_for_bit(pairs):
    values = _read_values([{"g": "x", "re": re, "im": im} for re, im in pairs])
    expected = list_assigned_values([re for re, _ in pairs], [im for _, im in pairs])
    assert values.view(np.float64).tobytes() == expected.view(np.float64).tobytes()


def assert_loads_as_json_loads(text: str) -> None:
    """``_load_report`` fails as ``json.loads`` fails, or reads the same document,
    with a values array holding the bits ``_read_values`` makes of the entries.

    Both read the text's UTF-8 bytes.  Wherever ``_layout_values`` takes a
    values list, the stdlib's scanner reads the same values there and ends the
    list at the same index, counted in bytes.
    """
    data = text.encode("utf-8")
    for member in re.finditer('"values": ', text):
        read = _layout_values(data, len(text[: member.end()].encode("utf-8")))
        if read is not None:
            entries, end = json.JSONDecoder().raw_decode(text, member.end())
            values = _read_values(entries)
            end = len(text[:end].encode("utf-8"))
            assert read[0].view(np.float64).tobytes() == values.view(np.float64).tobytes()
            assert read[1] == end
    try:
        expected = json.loads(text)
    except (ValueError, RecursionError) as exc:
        with pytest.raises(type(exc)) as raised:
            _load_report(data)
        assert str(raised.value) == str(exc)
        return
    doc = _load_report(data)
    if isinstance(doc, dict) and isinstance(doc.get("values"), np.ndarray):
        values = _read_values(expected["values"])
        assert doc["values"].view(np.float64).tobytes() == values.view(np.float64).tobytes()
        doc, expected = {**doc, "values": None}, {**expected, "values": None}
    # repr tells 1 from 1.0 and -0.0 from 0.0, and shows the key order.
    assert repr(doc) == repr(expected)


# Small designs and the assignment each report is taken under: the 2x3 one
# has irrational parts, the 3x3 one also parts in exponent form (rounding
# residues such as 3.33066907388e-16), and every part of the 4x2x2 one is an
# integer.
SMALL_REPORTS = {
    "2x3": ("symbols: a b | x y z\na x\nb y\nb z\na z\n", "2,3"),
    "3x3": ("symbols: a b c | x y z\na x\nb y\nc x\na z\n", "3,3"),
    "4x2x2": ("symbols: a b c d | x y | u v\na x u\nb y v\nd x v\nc y u\nc x v\n", "4,2,2"),
}


@pytest.fixture(scope="module", params=SMALL_REPORTS)
def small_report(request, tmp_path_factory) -> str:
    """The `jchar --json` report of a design of SMALL_REPORTS."""
    design_text, groups = SMALL_REPORTS[request.param]
    design = tmp_path_factory.mktemp("report") / "design.txt"
    design.write_text(design_text, encoding="utf-8")
    report = design.with_suffix(".json")
    assert main(["jchar", str(design), "--groups", groups, "--json", "--output", str(report)]) == 0
    text = report.read_text(encoding="utf-8")
    assert request.param != "3x3" or re.search(r'"im": -?[0-9.]+e-', text)
    # Unedited, every report is read by _layout_values, and the whole loader keeps its array.
    data = report.read_bytes()
    assert _layout_values(data, data.index(b'"values": ') + len(b'"values": ')) is not None
    assert isinstance(_load_report(data)["values"], np.ndarray)
    return text


# Characters, most of them JSON syntax, that edits insert or put in place of one.
CHARS = st.sampled_from(list('{}[]",: \n\t0123456789.-+eEtrufalsnNI\\\ufeff\x00\u00e9'))
# JSON values that a "token" edit puts in place of a number or a whole values
# entry, so that edits make well-formed reports with odd members too.
VALUES = st.sampled_from(['"re"', "true", "null", "1e400", "-0", '"x"', "{}", "[]", "[1, 2]",
                          '{"re": 1, "im": 2}', '{"re": 1}', ', "values": []', "1" + "0" * 400])
TOKENS = [re.compile(r"-?[0-9][0-9.eE+-]*"), re.compile(r'\{\s*"g"[^{}]*\}')]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_report_loads_as_json_loads(small_report, data):
    indented = json.dumps(json.loads(small_report), indent=2)
    text = data.draw(st.sampled_from([small_report, indented]))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["insert", "delete", "replace", "token"]))
        spans = [m.span() for m in data.draw(st.sampled_from(TOKENS)).finditer(text)]
        if kind == "token" and spans:
            start, end = data.draw(st.sampled_from(spans))
            text = text[:start] + data.draw(VALUES) + text[end:]
        else:
            start = data.draw(st.integers(0, len(text)))
            piece = "" if kind == "delete" else data.draw(CHARS)
            text = text[:start] + piece + text[start + (kind != "insert") :]
    # Slices of a few entries, or of one, put slice ends among the edits.
    with mock.patch.object(render, "_SLICE", data.draw(st.sampled_from([render._SLICE, 1, 100]))):
        assert_loads_as_json_loads(text)


def report_of(values: str, head: str = '"groups": ["2"], "n_runs": 1, ') -> str:
    """A report with ``head`` and then ``values`` as its values list's entries."""
    return '{%s"values": [%s]}' % (head, values)


def entries_with(token: str) -> str:
    """Two entries in jchar's layout, with ``token`` as the first's re and the second's im."""
    return '{"g": "0", "re": %s, "im": 1}, {"g": "1", "re": -2, "im": %s}' % (token, token)


# Number tokens and other span contents, and whether _layout_values takes
# them: every number JSON allows, the integers of no leading zero below 2**53
# through _integers and the others through _numbers.  1.7763568394e-15 is
# 17763568394 * 10**-25, past the exact powers of ten (up to 10**22), and
# 1e400 reads as inf, as json.loads reads it.
TOKENS_TAKEN = {"-0": True, "7": True, "999999999999999": True, "-999999999999999": True,
                "1.0": True, "1e3": True, "1e+12": True, "1000000000000000": True,
                str(2**53 + 1): True, "-0.0": True, "5e-324": True, "2.5E+3": True,
                "1.7763568394e-15": True, "1e400": True,
                "01": False, "+1": False, "-": False, "1.": False, ".5": False, "1e": False,
                "--1": False, "Infinity": False, "NaN": False,
                "[1]": False, "true": False, "null": False, "1 2": False, "1,2": False}
# Near misses of jchar's layout, none of which _layout_values takes: a label
# holding an escape other than \uXXXX (also \\ before four hex digits), an
# invalid escape, a \u with a non-hex or a missing digit, a control or a
# non-ASCII character, values before another member, a tab for a space, an
# extra key, quotes too near the end for an "im", and a backslash too near
# the list's end to start a \uXXXX.
NEAR_MISSES = [
    report_of('{"g": "a\\"b", "re": 1, "im": 0}'),
    report_of('{"g": "a\\\\b", "re": 1, "im": 0}'),
    report_of('{"g": "\\\\12345", "re": 1, "im": 0}'),
    report_of('{"g": "a\\nb", "re": 1, "im": 0}'),
    report_of('{"g": "a\\qb", "re": 1, "im": 0}'),
    report_of('{"g": "\\u00g9", "re": 1, "im": 0}'),
    report_of('{"g": "\\u00e", "re": 1, "im": 0}'),
    report_of('{"g": "a\tb", "re": 1, "im": 0}'),
    report_of('{"g": "\u00e9", "re": 1, "im": 0}'),
    '{"groups": ["2"], "values": [%s], "n_runs": 1}' % entries_with("3"),
    report_of('{"g":\t"0", "re": 1, "im": 0}'),
    report_of('{"g": "0", "re": 1, "im": 0, "x": 1}'),
    report_of('{"g": "x", "re": 1, ""}'),
    report_of('{"g": "0", "re": 1, "im": 1\\u}'),
]
# Labels whose backslashes each start \uXXXX, as jchar writes non-ASCII
# symbols, in either case of hex digit and as a surrogate pair.
UNICODE_ESCAPED = report_of(
    '{"g": "\\u00e9", "re": 1, "im": 0}, {"g": "x\\u00E9\\ud83d\\ude00", "re": -2, "im": 3}'
)
# Two values members; the last one, which json.loads keeps, is in jchar's layout.
TWO_VALUES = report_of(entries_with("5"), '"values": [%s], "groups": ["2"], "n_runs": 1, '
                       % entries_with("4"))
# Documents whose first "values": list _layout_values takes, where that list
# is not the top-level values or the text holds another constant, so
# _load_report reads them whole with json.loads.  A null in the list's place
# would pass the first for its top-level null.
SPLICE_EDGES = [
    '{"values":null, "a": {"values": [%s]}}' % entries_with("3"),
    '{"values":1, "a": {"values": [%s]}}' % entries_with("3"),
    '{"x": NaN, "values": [%s]}' % entries_with("3"),
    '{"a": {"values": [%s]}}' % entries_with("3"),
]


@pytest.mark.parametrize(
    "text",
    ["", "}", "{}", " {\n} ", "{} x", "{}}", '{"a": 1,}', '{"a" 1}', '{"a": }', '{"a": 1 "b": 2}',
     "[]", "\ufeff{}", '{"values": [{"re": 1, "im": 2}], "values": 1}', '{"values": [{"re": 1}]]}',
     *(report_of(entries_with(token)) for token in TOKENS_TAKEN), *NEAR_MISSES, TWO_VALUES,
     *SPLICE_EDGES, UNICODE_ESCAPED],
)
def test_odd_documents_load_as_json_loads(text):
    assert_loads_as_json_loads(text)


@pytest.mark.parametrize("text", SPLICE_EDGES)
def test_layout_reader_takes_each_splice_edge(text):
    # So each edge reaches _load_report's check of what stands in the list's place.
    data = text.encode("ascii")
    assert _layout_values(data, data.index(b'"values": ') + len(b'"values": ')) is not None


@pytest.mark.parametrize("token, taken", TOKENS_TAKEN.items())
def test_layout_reader_takes_every_json_number(token, taken):
    data = report_of(entries_with(token)).encode("ascii")
    assert (_layout_values(data, data.index(b"[{")) is not None) == taken


# Integer tokens about the one bound of _integers, and the reader that takes
# each: _integers every integer of no leading zero below 2**53, 16 digits
# included; _numbers every other integer; neither one with a leading zero.
BOUND_TOKENS = {"9007199254740991": "_integers", "-9007199254740991": "_integers",
                "1000000000000000": "_integers", "-0": "_integers",
                "9007199254740992": "_numbers", "9007199254740993": "_numbers",
                "-9007199254740993": "_numbers", "10000000000000000": "_numbers",
                "01": None, "-01": None, "0000000000000001": None, "09007199254740991": None}


@pytest.mark.parametrize("token, reader", BOUND_TOKENS.items())
def test_integers_takes_every_integer_below_2_53_and_no_other(token, reader, monkeypatch):
    took = {}

    def spy(name, read):
        def call(*args):
            parts = read(*args)
            took[name] = parts is not None
            return parts

        return call

    for name in ("_integers", "_numbers"):
        monkeypatch.setattr(render, name, spy(name, getattr(render, name)))
    data = report_of(entries_with(token)).encode("ascii")
    read = _layout_values(data, data.index(b"[{"))
    if reader == "_integers":  # _numbers never sees it
        assert took == {"_integers": True}
    else:
        assert took == {"_integers": False, "_numbers": reader == "_numbers"}
    if reader is None:
        assert read is None
    else:  # the float json.loads gives
        number = json.loads(token)
        assert read[0].tolist() == [complex(number, 1), complex(-2, number)]


@pytest.mark.parametrize("text", NEAR_MISSES)
def test_layout_reader_takes_no_near_miss(text):
    data = text.encode("utf-8")
    assert all(_layout_values(data, m.end()) is None for m in re.finditer(b'"values": ', data))


def test_layout_reader_takes_unicode_escaped_labels():
    values, end = _layout_values(UNICODE_ESCAPED.encode("ascii"), UNICODE_ESCAPED.index("[{"))
    assert values.tolist() == [1, -2 + 3j] and UNICODE_ESCAPED[end:] == "}"
    labels = [e["g"] for e in json.loads(UNICODE_ESCAPED)["values"]]
    assert labels == ["\u00e9", "x\u00e9\U0001f600"]


def test_layout_reader_takes_the_last_of_two_values_members():
    data = TWO_VALUES.encode("ascii")
    first, last = (m.end() for m in re.finditer(b'"values": ', data))
    assert _layout_values(data, first) is None
    values, end = _layout_values(data, last)
    assert values.tolist() == [5 + 1j, -2 + 5j] and TWO_VALUES[end:] == "}"


@PROPERTY
@given(st.lists(st.tuples(JSON_NUMBERS, JSON_NUMBERS), max_size=20))
@example([(2**53 + 1, 2**63), (2**63 + 1, -(2**63) - 1), (2**64 + 3, -0.0)])
@example([(10**15 - 1, -(10**15 - 1)), (10**15, -(2**53) - 1), (1.0, 1e3), (1e12, 0)])
@example([(0, 7), (-5, 10**14)])
def test_report_values_load_bit_for_bit(pairs):
    entries = [{"g": "x", "re": re, "im": im} for re, im in pairs]
    text = json.dumps({"groups": ["2"], "n_runs": 1, "values": entries})
    # jchar writes no empty list, so the layout reader leaves [] to json.loads.
    assert isinstance(_load_report(text.encode("ascii"))["values"], np.ndarray if pairs else list)
    assert_loads_as_json_loads(text)
