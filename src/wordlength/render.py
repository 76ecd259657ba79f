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


# Entries joined per block.  On a 4^8 spectrum of integer counts (2-vCPU
# x86-64 guest, best of 40), one block for all 65,536 entries raised the
# traced peak of dumps from 4.8 to 6.9 MiB and took 10.2 against 9.0 ms;
# blocks of 1024 took 10.3 ms and of 16,384 9.4 ms, at the same peak.
_BLOCK = 4096


def _write_spectrum(spectrum: Spectrum, out: list[str]) -> None:
    # Four pieces per entry, filled a block at a time by strided assignment:
    # the head, the escaped symbols of every factor but the last; the tail,
    # the last factor's, then '", "re": '; the re part, then ', "im": '; and
    # the im part, then the separator up to the next entry's label.  Each
    # head is built once and leads len(last) entries in a row, under which
    # the tails cycle.  Escaping maps each character on its own, so escaped
    # symbols join into the escaped label.
    escaped = [[encode_basestring_ascii(sym)[1:-1] for sym in a] for a in spectrum.levels]
    joiner = _joiner(spectrum.levels)
    *front, last = escaped
    heads = map(joiner.join, itertools.product(*front))
    tails = itertools.cycle([joiner * bool(front) + sym + '", "re": ' for sym in last])
    res = _formatted(spectrum.values.real, ', "im": ')
    ims = _formatted(spectrum.values.imag, '}, {"g": "')
    ims[-1] = fmt_float(spectrum.values[-1].imag) + "}]"
    out.append('[{"g": "')
    pieces = [""] * 4 * min(len(res), _BLOCK)  # every block but the last fills the same list
    held: list[str] = []
    for start in range(0, len(res), _BLOCK):
        block = slice(start, start + _BLOCK)
        n = len(res[block])
        del pieces[4 * n :]
        rows = np.arange(start, start + n) // len(last)  # the head of each entry
        held = held[-1:] if start % len(last) else []  # a head the last block ended inside
        held += itertools.islice(heads, rows[-1] - rows[0] + 1 - len(held))
        pieces[0::4] = np.array(held, dtype=object)[rows - rows[0]].tolist()
        pieces[1::4] = itertools.islice(tails, n)
        pieces[2::4] = res[block].tolist()
        pieces[3::4] = ims[block].tolist()
        out.append("".join(pieces))


def _formatted(parts: np.ndarray, suffix: str) -> np.ndarray:
    """``fmt_float(x) + suffix`` of every part x, as an object array, formatting
    each distinct value once.

    Spectra of integer counts repeat few values; "+ 0.0" drops the sign of
    -0.0 as ``fmt_float`` does, and one "%.12g" template (the same digits as
    ``format(x, ".12g")``) formats all distinct values in one call.
    ``suffix`` holds no "%" and no NUL, which parts the formatted values.
    """
    distinct, inverse = np.unique(parts + 0.0, return_inverse=True)
    text = (f"%.12g{suffix}\0" * len(distinct))[:-1] % tuple(distinct.tolist())
    return np.array(text.split("\0"), dtype=object)[inverse]


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
