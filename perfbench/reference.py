"""Independent references for the benchmark's correctness checks.

Nothing here imports ``wordlength``: the wordlength pattern comes from the
pair-coincidence form of the generalized MacWilliams identity (Xu & Wu,
Ann. Statist. 29, 2001),

    A(z) = N^-2 * sum_{x,y} m_x m_y prod_i (x_i == y_i ? 1 + (s_i - 1) z : 1 - z),

which uses neither group characters nor margins.  Its coefficients times N^2
are integers, so the reference is exact.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

#: Rows of the pair block compared at once; bounds memory at BLOCK * n cells.
BLOCK = 256


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_pow(base: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, base)
    return out


def agreement_histogram(runs: np.ndarray, mult: np.ndarray, sizes) -> tuple[list[int], dict]:
    """Sum of m_x m_y over ordered pairs, grouped by agreements per level-size class.

    Returns the class sizes (distinct level counts, ascending) and a map from
    per-class agreement-count tuples to the exact integer pair weight.
    """
    runs = np.asarray(runs, dtype=np.int64)
    mult = np.asarray(mult, dtype=np.float64)
    n, k = runs.shape
    classes = sorted(set(int(s) for s in sizes))
    per_class = [sum(1 for s in sizes if s == c) for c in classes]
    radix, step = [], 1
    for count in per_class:
        radix.append(step)
        step *= count + 1
    factor_radix = [radix[classes.index(int(s))] for s in sizes]
    hist = np.zeros(step, dtype=np.float64)
    for a in range(0, n, BLOCK):
        b = min(n, a + BLOCK)
        code = np.zeros((b - a, n - a), dtype=np.int64)
        for i in range(k):
            code += (runs[a:b, i, None] == runs[None, a:, i]) * factor_radix[i]
        # Count each unordered pair twice and each run with itself once.
        sym = np.full((b - a, n - a), 2.0)
        sym[:, : b - a] = 2.0 * np.triu(np.ones((b - a, b - a)), 1) + np.eye(b - a)
        weight = mult[a:b, None] * mult[None, a:] * sym
        hist += np.bincount(code.ravel(), weights=weight.ravel(), minlength=step)
    # Every partial sum is an integer below N^2 * 2, far under 2**53: exact.
    table = {}
    for code in np.nonzero(hist)[0]:
        agreements, rem = [], int(code)
        for count in per_class:
            rem, a_c = divmod(rem, count + 1)
            agreements.append(a_c)
        table[tuple(agreements)] = int(hist[code])
    return classes, table


def gwlp_scaled(runs: np.ndarray, mult: np.ndarray, sizes) -> list[int]:
    """N^2 * A_j for j = 0..k, as exact integers."""
    sizes = [int(s) for s in sizes]
    classes, table = agreement_histogram(runs, mult, sizes)
    per_class = [sum(1 for s in sizes if s == c) for c in classes]
    total = [0] * (len(sizes) + 1)
    for agreements, w in table.items():
        poly = [1]
        for c, k_c, a_c in zip(classes, per_class, agreements):
            poly = _poly_mul(poly, _poly_pow([1, c - 1], a_c))
            poly = _poly_mul(poly, _poly_pow([1, -1], k_c - a_c))
        for j, coeff in enumerate(poly):
            total[j] += w * coeff
    return total


def gwlp_exact(scaled: list[int], n_runs: int) -> list[Fraction]:
    return [Fraction(v, n_runs * n_runs) for v in scaled]


def resolution_strength(scaled: list[int]) -> tuple[int | None, int]:
    """Smallest j >= 1 with A_j > 0, and strength = resolution - 1 (k if none)."""
    for j in range(1, len(scaled)):
        if scaled[j] > 0:
            return j, j - 1
    return None, len(scaled) - 1


def aberration(first: list[int], second: list[int]) -> tuple[str, int | None]:
    """Lexicographic comparison of two N^2-scaled patterns with equal N."""
    for j in range(1, len(first)):
        if first[j] != second[j]:
            return ("first-better" if first[j] < second[j] else "second-better"), j
    return "tie", None


def abelian_literals(order: int) -> list[str]:
    """Structure literals of every abelian group of ``order`` (primary form)."""
    primes, n, d = [], order, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            primes.append((d, e))
        d += 1
    if n > 1:
        primes.append((n, 1))
    choices = [[]]
    for p, e in primes:
        parts = [[p**x for x in la] for la in _partitions(e, e)]
        choices = [c + part for c in choices for part in parts]
    return ["x".join(str(x) for x in c) or "1" for c in choices]


def _partitions(n: int, cap: int):
    if n == 0:
        yield []
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first, *rest]


def yates_components(sizes) -> np.ndarray:
    """(s, k) array of per-factor components of every Yates index."""
    s = math.prod(sizes)
    return np.stack(np.unravel_index(np.arange(s), tuple(sizes)), axis=1)


def character_sum(runs, mult, literals, element) -> complex:
    """chi_g = sum over runs of m_x * prod_factors chi_{g_f}(x_f), by definition.

    Each factor's level index and element index are split into mixed-radix
    residues over the literal's cyclic orders, first part most significant.
    """
    total = 0j
    for run, m in zip(runs, mult):
        value = 1 + 0j
        for level, g, literal in zip(run, element, literals):
            orders = [int(x) for x in literal.split("x")]
            h_digits = np.unravel_index(int(level), orders)
            g_digits = np.unravel_index(int(g), orders)
            for d, gd, hd in zip(orders, g_digits, h_digits):
                value *= cmath.exp(2j * math.pi * int(gd) * int(hd) / d)
        total += int(m) * value
    return total
