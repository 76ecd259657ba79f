"""Kronecker-product helpers: dense products, factorized application, axis projectors.

Throughout, product spaces are indexed in Yates order: the first tensor factor
owns the most significant mixed-radix digit, matching ``numpy.kron``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices, bit for bit: the same dtype, shape and bytes.

    Each entry is the one product ``a[i, j] * b[k, l]``, ``a`` first, that
    ``np.kron`` makes.  The output, laid out as (m, p, n, q) for an (m, n)
    ``a`` and a (p, q) ``b``, is filled by one multiply per entry of the
    operand with fewer entries: the whole larger operand times that entry.
    The entry is a (1, 1) slice, not a scalar, so dtypes promote and the ufunc
    picks its loop as for the arrays ``np.kron`` multiplies; a flat one-entry
    slice rounded some one-entry products apart.  ``np.kron``'s one multiply
    runs along the smaller operand's columns, 2 to 16 entries long for a
    cyclic table.  Uncapped: no table or block the package builds has more
    than 4096² entries.
    """
    (m, n), (p, q) = a.shape, b.shape
    out = np.empty((m, p, n, q), np.result_type(a, b))
    if b.size <= a.size:
        for k, l in itertools.product(range(p), range(q)):
            np.multiply(a, b[k : k + 1, l : l + 1], out=out[:, k, :, l])
    else:
        for i, j in itertools.product(range(m), range(n)):
            np.multiply(a[i : i + 1, j : j + 1], b, out=out[i, :, j, :])
    return out.reshape(m * p, n * q)


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices (empty product is [[1]])."""
    return functools.reduce(kron, factors, np.ones((1, 1), dtype=np.complex128))


def factored_apply(factors: Sequence[np.ndarray], v: Sequence[complex]) -> np.ndarray:
    """Apply ``kron(factors...) @ v`` without materializing the product.

    Each factor must be square; ``v`` has length equal to the product of the
    factor sizes.  The factors are contracted one axis at a time, which costs
    O(s * sum_i s_i) arithmetic and O(s) extra space instead of the O(s^2) of
    the dense product.

    Each axis is one ``np.dot`` on the operands ``np.tensordot`` would build:
    the factor, and the vector with the contracted axis moved first (the rest
    in order) reshaped to a C-contiguous ``(s_i, s / s_i)``.  Identical
    operands make an identical BLAS call, so the result matches the
    ``tensordot`` loop bit for bit, down to the ``1e-16`` residues the golden
    CLI output pins; a layout that skips the transpose would not.
    """
    mats = [np.asarray(f, dtype=np.complex128) for f in factors]
    sizes = []
    for f in mats:
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError(f"factors must be square matrices, got shape {f.shape}")
        sizes.append(f.shape[0])
    v = np.asarray(v, dtype=np.complex128)
    total = math.prod(sizes)
    if v.shape != (total,):
        raise ValueError(f"vector has shape {v.shape}, expected ({total},)")
    w = v.reshape(sizes)
    for axis, f in enumerate(mats):
        w = _contract_axis(w, axis, f)
    return w.reshape(-1)


def _contract_axis(w: np.ndarray, axis: int, f: np.ndarray) -> np.ndarray:
    """``factored_apply``'s step: the square ``f`` applied along one axis of ``w``."""
    moved = w.transpose(axis, *range(axis), *range(axis + 1, w.ndim))
    product = np.dot(f, moved.reshape(f.shape[0], -1)).reshape(moved.shape)
    return product.transpose(*range(1, axis + 1), 0, *range(axis + 1, w.ndim))


def projector_factors(kinds: Sequence[str], sizes: Sequence[int]) -> list[np.ndarray]:
    """The per-coordinate matrices of an axis projector (testing aid).

    Kind ``"P"`` projects onto the first coordinate axis (a single 1 at
    (0, 0)), ``"Q"`` = I - P onto its complement, and ``"I"`` is the identity.
    """
    if len(kinds) != len(sizes):
        raise ValueError("one kind per coordinate required")
    factors = []
    for kind, size in zip(kinds, sizes):
        if kind not in ("P", "Q", "I"):
            raise ValueError(f"projector kind must be P, Q or I, got {kind!r}")
        if size < 1:
            raise ValueError(f"coordinate size must be positive, got {size}")
        if kind == "I":
            factors.append(np.eye(size, dtype=np.complex128))
        else:
            p = np.zeros((size, size), dtype=np.complex128)
            p[0, 0] = 1.0
            factors.append(p if kind == "P" else np.eye(size) - p)
    return factors


def build_projector(kinds: Sequence[str], sizes: Sequence[int]) -> np.ndarray:
    """Dense Kronecker product of P/Q/I coordinate factors (testing aid only)."""
    return kron_all(projector_factors(kinds, sizes))
