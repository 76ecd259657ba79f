"""Shared test utilities: independent oracles, a random-design generator and
the one measure of a call's traced memory peak.

The oracles recompute quantities from their defining formulas with plain
Python loops and cmath, touching none of the package's transform, table or
margin code, so route-vs-oracle agreement is meaningful.
"""

from __future__ import annotations

import cmath
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from wordlength import Design, enumerate_structures, j_characteristics
from wordlength.groups import cyclic_character_table
from wordlength.invariance import JCharWitness, expand_assignments
from wordlength.render import element_labels
from wordlength.spectra import _residue_bound

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def traced(call):
    """``(call(), peak)``: the result and the peak bytes that tracemalloc traced
    while ``call`` ran.  A bound on a CLI command runs the command once before
    this, so that the peak leaves out the parser the process builds once."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_character(structure_orders, g, h) -> complex:
    """exp(2*pi*i * sum g_p h_p / d_p) over the cyclic parts of one factor."""
    phase = sum((gp * hp) / d for gp, hp, d in zip(g, h, structure_orders))
    return cmath.exp(2j * math.pi * phase)


def yates_elements(orders):
    """Residues of every element of prod Z_d, one row per Yates index, and the
    Yates index of residue rows taken mod ``orders``; () has the one row ()."""
    orders = np.array(orders, dtype=np.int64)
    digits = np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)
    places = np.array([math.prod(orders[i + 1 :]) for i in range(orders.size)], np.int64)
    return digits, lambda rows: (rows % orders) @ places


def oracle_jchar(design: Design, structures) -> np.ndarray:
    """Direct-summation spectrum: chi[g] = sum_h O(h) * prod_i chi_{g_i}(h_i)."""
    factor_elements = [
        list(itertools.product(*(range(d) for d in st.cyclic_orders)))
        for st in structures
    ]
    values = []
    for g in itertools.product(*factor_elements):
        total = 0j
        for run, mult in design.counts.items():
            term = complex(mult)
            for i, st in enumerate(structures):
                h = factor_elements[i][run[i]]
                term *= oracle_character(st.cyclic_orders, g[i], h)
            total += term
        values.append(total)
    return np.array(values, dtype=np.complex128)


def oracle_gwlp(design: Design, structures) -> list[float]:
    """Weight-class sums of |chi|^2 over the direct-summation spectrum."""
    chi = oracle_jchar(design, structures)
    orders = [st.order for st in structures]
    k = len(orders)
    sums = [0.0] * (k + 1)
    for index, value in enumerate(chi):
        digits, rem = [], index
        for order in reversed(orders):
            rem, r = divmod(rem, order)
            digits.append(r)
        wt = sum(1 for d in digits if d != 0)
        sums[wt] += abs(value) ** 2
    n = design.n_runs
    return [x / n**2 for x in sums]


def tensordot_apply(factors, v) -> np.ndarray:
    """kron(factors...) @ v by one np.tensordot and np.moveaxis per axis: the
    reference that factored_apply matches bit for bit."""
    mats = [np.asarray(f, dtype=np.complex128) for f in factors]
    w = np.asarray(v, dtype=np.complex128).reshape([f.shape[0] for f in mats])
    for axis, f in enumerate(mats):
        w = np.moveaxis(np.tensordot(f, w, axes=([1], [axis])), 0, axis)
    return w.reshape(-1)


def quarter_turn_butterfly(flat: np.ndarray) -> np.ndarray:
    """Z_4's table along the leading axis of ``flat`` in C order, moved last, by
    adds, subtracts and one product by 1j: the reference that the table-product
    step equals as numbers on Gaussian integers."""
    x = flat.reshape(4, -1)
    y = np.empty((x.shape[1], 4), dtype=np.complex128)
    # y_g = sum_h i^(gh) x_h: y0, y2 = a +- b and y1, y3 = c +- i(x1 - x3)
    b = np.add(x[1], x[3])
    np.add(x[0], x[2], out=y[:, 0])  # a
    np.subtract(y[:, 0], b, out=y[:, 2])
    y[:, 0] += b
    ie = np.subtract(x[1], x[3], out=b)
    ie *= 1j
    np.subtract(x[0], x[2], out=y[:, 1])  # c
    np.subtract(y[:, 1], ie, out=y[:, 3])
    y[:, 1] += ie
    return y.reshape(-1)


def part_tables(structures) -> list[np.ndarray]:
    """The cyclic table of every part of an assignment, in Yates order: with
    factored_apply, the table route that the transforms are checked against."""
    return [cyclic_character_table(d) for st in structures for d in st.cyclic_orders]


def spectrum_entries(levels, values: np.ndarray) -> list[dict]:
    """The ``{"g", "re", "im"}`` entry of every element of the spectrum ``values``
    over the symbols ``levels``: ``dumps`` of this list writes each entry on its
    own, the reference that the bulk spectrum writer must match byte for byte."""
    return [
        {"g": label, "re": re, "im": im}
        for label, re, im in zip(
            element_labels(levels),
            values.real.tolist(),
            values.imag.tolist(),
        )
    ]


def list_assigned_values(res, ims) -> np.ndarray:
    """A complex array whose real and imaginary views were assigned the
    Python lists ``res`` and ``ims``: the reference that report values read
    as, bit for bit."""
    values = np.empty(len(res), dtype=np.complex128)
    values.real, values.imag = res, ims
    return values


def oracle_margin_counts(design: Design, subset) -> dict[tuple[int, ...], int]:
    """Margins recomputed from the fully expanded run list."""
    expanded = []
    for run, mult in design.counts.items():
        expanded.extend([run] * mult)
    table: dict[tuple[int, ...], int] = {}
    for run in expanded:
        cell = tuple(run[i] for i in sorted(subset))
        table[cell] = table.get(cell, 0) + 1
    return table


def naive_margin_counts(design: Design, subset) -> dict[tuple[int, ...], int]:
    """Margins by one dict update per distinct run, adding its multiplicity."""
    positions = sorted(set(subset))
    table: dict[tuple[int, ...], int] = {}
    for run, mult in design.counts.items():
        cell = tuple(run[i] for i in positions)
        table[cell] = table.get(cell, 0) + mult
    return table


def pair_subset_norm(design: Design, subset) -> int:
    """s * B_K from run pairs: prod(sizes_K) * sum of m_x m_y over pairs agreeing on K."""
    positions = sorted(set(subset))
    runs = list(design.counts.items())
    agreeing = sum(
        mx * my
        for x, mx in runs
        for y, my in runs
        if all(x[i] == y[i] for i in positions)
    )
    return math.prod(design.sizes[i] for i in positions) * agreeing


def mobius_alternating_list(values, k: int) -> list[int]:
    """Subset-lattice Moebius transform by one pass per bit over a flat list."""
    out = list(values)
    for i in range(k):
        bit = 1 << i
        for mask in range(len(out)):
            if mask & bit:
                out[mask] -= out[mask ^ bit]
    return out


def exact_gwlp(design: Design) -> list[Fraction]:
    """(A_0, ..., A_k) as exact fractions, from the MacWilliams pair form.

    A(z) = N^-2 * sum over run pairs (x, y) of m_x m_y prod_i p_i(z), with
    p_i(z) = 1 + (s_i - 1) z when x_i = y_i and 1 - z otherwise; the
    coefficient of z^j is A_j.  Integer polynomial arithmetic throughout.
    """
    k = design.k
    scaled = [0] * (k + 1)
    runs = list(design.counts.items())
    for x, mx in runs:
        for y, my in runs:
            poly = [mx * my]
            for i in range(k):
                linear = design.sizes[i] - 1 if x[i] == y[i] else -1
                poly = [a + linear * b for a, b in zip(poly + [0], [0] + poly)]
            scaled = [a + b for a, b in zip(scaled, poly)]
    return [Fraction(a, design.n_runs**2) for a in scaled]


def random_design(
    rng: np.random.Generator,
    *,
    max_k: int = 4,
    sizes_pool=(2, 3, 4, 6, 8, 9, 12),
    max_distinct: int = 20,
    max_mult: int = 3,
) -> Design:
    """A random multiset design; N <= max_distinct * max_mult."""
    k = int(rng.integers(1, max_k + 1))
    sizes = [int(rng.choice(sizes_pool)) for _ in range(k)]
    levels = tuple(tuple(str(j) for j in range(s)) for s in sizes)
    n_distinct = int(rng.integers(1, max_distinct + 1))
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(n_distinct):
        run = tuple(int(rng.integers(0, s)) for s in sizes)
        counts[run] = int(rng.integers(1, max_mult + 1))
    return Design(levels, counts)


def complement(design: Design, c: int) -> Design:
    """The design c·1 − m: every cell of the full factorial counted c less its
    multiplicity in ``design``, cells that fall to 0 left out.  Its chi is
    -chi at every element but the identity, since c·1 transforms to zero there."""
    if max(design.counts.values()) > c:
        raise ValueError(f"a multiplicity of the design exceeds c = {c}")
    cells = itertools.product(*map(range, design.sizes))
    rest = {cell: c - design.counts.get(cell, 0) for cell in cells}
    return Design(design.levels, {cell: m for cell, m in rest.items() if m})


def linear_code(generator, q: int, shift=None) -> Design:
    """The code spanned by the rows of ``generator`` over Z_q (q prime, or 4), as a
    design with one q-level factor per column: each u in Z_q^r gives the run u·G
    mod q, or u·G + ``shift`` mod q for the coset, so every codeword is counted
    alike and N = q^r."""
    matrix = np.asarray(generator, dtype=np.int64) % q
    rows, n = matrix.shape
    offset = np.zeros(n, np.int64) if shift is None else np.asarray(shift, np.int64)
    combinations = itertools.product(range(q), repeat=rows)
    words = Counter(tuple(((np.array(u) @ matrix + offset) % q).tolist()) for u in combinations)
    return Design([tuple(map(str, range(q)))] * n, words)


def dual_weights(generator, q: int) -> list[int]:
    """How many words of each Hamming weight 0..n the dual code {v : G v = 0 mod q}
    has, by a scan of Z_q^n.  Under Z_q on every factor, chi_v of ``linear_code``
    is N on the dual and 0 off it, so these counts are the code's GWLP."""
    matrix = np.asarray(generator, dtype=np.int64) % q
    n = matrix.shape[1]
    counts = [0] * (n + 1)
    for v in itertools.product(range(q), repeat=n):
        if not (matrix @ v % q).any():
            counts[n - v.count(0)] += 1
    return counts


def all_assignments(design: Design):
    """Every per-factor abelian structure choice for a design."""
    per_factor = [enumerate_structures(s) for s in design.sizes]
    return [tuple(combo) for combo in itertools.product(*per_factor)]


def full_scan_witness(design: Design, assignments="all") -> JCharWitness | None:
    """The invariance witness from a full scan of every later spectrum.

    Each later assignment offers the first Yates element where its spectrum
    differs from the first assignment's by more than the larger of their two
    ``_residue_bound``s; the least element wins, then the larger |delta|
    there, then the earlier assignment.
    """
    resolved = expand_assignments(design, assignments)
    spectra = [j_characteristics(design, a).values for a in resolved]
    bounds = [_residue_bound(a, design.n_runs) for a in resolved]
    best = None
    for pos, values in enumerate(spectra[1:], start=1):
        deltas = abs(values - spectra[0])
        differing = (deltas > max(bounds[0], bounds[pos])).nonzero()[0]
        if differing.size:
            element = int(differing[0])
            candidate = (element, -float(deltas[element]), pos)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        return None
    element, _, pos = best
    return JCharWitness(
        components=tuple(int(r) for r in np.unravel_index(element, design.sizes)),
        first_assignment=resolved[0],
        other_assignment=resolved[pos],
        first_value=complex(spectra[0][element]),
        other_value=complex(spectra[pos][element]),
    )
