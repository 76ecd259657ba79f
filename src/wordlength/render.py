"""Deterministic text and JSON rendering.

Floats are always formatted with 12 significant digits and negative zero
normalized away, so identical inputs produce byte-identical output.  Complex
values render as ``a``, ``bi`` or ``a+bi`` / ``a-bi`` with trailing zeros
trimmed, the way spectrum tables are conventionally printed.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Sequence

import numpy as np


def fmt_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # drop the sign of -0.0
    return format(x, ".12g")


def fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return fmt_float(re)
    if abs(im) == 1.0:
        imag = "i" if im > 0 else "-i"
    else:
        imag = fmt_float(im) + "i"
    if re == 0.0:
        return imag
    sign = "+" if im > 0 else "-"
    return fmt_float(re) + sign + imag.lstrip("-")


def complex_json(z: complex) -> dict[str, float]:
    return {"re": float(z.real), "im": float(z.imag)}


class Spectrum:
    """Complex values over a design's group elements, in Yates order.

    ``dumps`` writes it as the list ``[{"g": label, "re": x, "im": y}, ...]``
    with ``element_labels(levels)`` as the labels, in bulk: each symbol is
    escaped once and each distinct real or imaginary part formatted once.
    """

    # A plain class: a dataclass would add about 1 ms to every command's import.
    __slots__ = ("levels", "values")

    def __init__(self, levels: Sequence[Sequence[str]], values: np.ndarray) -> None:
        self.levels = levels
        self.values = values


def dumps(payload: Any) -> str:
    """Canonical JSON: insertion-ordered keys, floats at 12 significant digits."""
    pieces: list[str] = []
    _write(payload, pieces)
    return "".join(pieces)


def _write(value: Any, out: list[str]) -> None:
    # Each scalar is encoded as json.dumps would encode it (ASCII-escaped).
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):  # before int: bool is an int subclass
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = fmt_float(value)
        # ".12g" may produce bare exponents like 1e-09, which JSON accepts.
        out.append(text)
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(encode_basestring_ascii(str(key)))
            out.append(": ")
            _write(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif isinstance(value, Spectrum):  # after the common types, which then pay nothing
        _write_spectrum(value, out)
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


# Entries joined per block: the pieces of a whole 4^8 spectrum at once raised
# the process's peak RSS by a few MiB and ran no faster.
_BLOCK = 4096


def _write_spectrum(spectrum: Spectrum, out: list[str]) -> None:
    # Escaping maps each character on its own, so escaped symbols join into
    # the escaped label.
    escaped = [[encode_basestring_ascii(sym)[1:-1] for sym in a] for a in spectrum.levels]
    labels = map(_joiner(spectrum.levels).join, itertools.product(*escaped))
    res = _formatted(spectrum.values.real)
    ims = _formatted(spectrum.values.imag)
    out.append("[")
    for start in range(0, len(res), _BLOCK):
        block = slice(start, start + _BLOCK)
        # One row of pieces per entry, each row led by its separator.
        pieces = np.empty((len(res[block]), 7), dtype=object)
        pieces[:] = (', {"g": "', None, '", "re": ', None, ', "im": ', None, "}")
        pieces[:, 1] = list(itertools.islice(labels, _BLOCK))
        pieces[:, 3] = res[block]
        pieces[:, 5] = ims[block]
        if not start:
            pieces[0, 0] = '{"g": "'
        out.append("".join(pieces.ravel().tolist()))
    out.append("]")


def _formatted(parts: np.ndarray) -> np.ndarray:
    """``fmt_float`` of every part, as an object array, formatting each distinct value once.

    Spectra of integer counts repeat few values; "+ 0.0" drops the sign of
    -0.0 as ``fmt_float`` does, and one "%.12g" template (the same digits as
    ``format(x, ".12g")``) formats all distinct values in one call.
    """
    distinct, inverse = np.unique(parts + 0.0, return_inverse=True)
    text = ("%.12g," * len(distinct))[:-1] % tuple(distinct.tolist())
    return np.array(text.split(","), dtype=object)[inverse]


def element_label(levels: Sequence[Sequence[str]], components: Iterable[int]) -> str:
    """Label a group element by the level symbols at its per-factor components.

    Symbols are concatenated when every symbol is a single character
    (Table-style labels like ``aab``), otherwise joined with commas.
    """
    return _joiner(levels).join(levels[i][c] for i, c in enumerate(components))


def element_labels(levels: Sequence[Sequence[str]]) -> Iterator[str]:
    """``element_label`` of every element in Yates order, one joiner for all."""
    return map(_joiner(levels).join, itertools.product(*levels))


def _joiner(levels: Sequence[Sequence[str]]) -> str:
    return "" if all(len(sym) == 1 for alphabet in levels for sym in alphabet) else ","


def gwlp_text(values: Iterable[float]) -> str:
    return "(" + ", ".join(fmt_float(a) for a in values) + ")"
