"""Deterministic text and JSON rendering, and the ``jchar --json`` report.

Floats are formatted with 12 significant digits, integral ones below 2**53 whole,
and negative zero normalized away, so identical inputs produce byte-identical
output.  Complex values render as ``a``, ``bi`` or ``a+bi`` / ``a-bi`` with
trailing zeros trimmed, the way spectrum tables are conventionally printed.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DesignParseError, ResourceLimitError
from .spectra import JCharVector, _residue_bound


def fmt_float(x: float) -> str:
    x = float(x) + 0.0  # + 0.0 drops the sign of -0.0
    return "%d" % x if x.is_integer() and abs(x) < 2**53 else "%.12g" % x


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


def dumps(payload: Any) -> str:
    """Canonical JSON: insertion-ordered keys, floats as ``fmt_float`` writes them.

    A callable in ``payload`` is a writer: it is called with the list of
    pieces, to which it appends its value's JSON.
    """
    return "".join(_pieces(payload))


def _pieces(payload: Any) -> list[str]:
    """The strings that ``dumps(payload)`` joins, in order."""
    pieces: list[str] = []
    _write(payload, pieces)
    return pieces


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
    elif callable(value):  # a bulk writer, after the common types, which then pay nothing
        value(out)
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


# Entries joined per block.  On a 4^8 spectrum of integer counts (2-vCPU
# x86-64 guest, best of 40, three runs), one block for all 65,536 entries
# raised the traced peak of dumps from 4.9 to 6.5 MiB and took 11.4 against
# 11.2 ms; blocks of 1024 took 11.2 ms and of 16,384 11.5 ms, at 4.9 MiB.
_BLOCK = 4096

# The bytes of a spectrum list around its labels and parts, as the writer
# writes them and the layout reader checks them.
_OPEN = '[{"g": "'  # before the first label
_RE = '", "re": '  # after a label
_IM = ', "im": '  # after a real part
_NEXT = '}, {"g": "'  # after an imaginary part, before the next label
_CLOSE = "}]"  # after the last imaginary part


def _write_spectrum(levels: Sequence[Sequence[str]], values: np.ndarray, out: list[str]) -> None:
    """Write ``values``, complex values over a design's group elements in Yates
    order, as the list ``[{"g": label, "re": x, "im": y}, ...]`` with
    ``element_labels(levels)`` as the labels, in bulk: each symbol is escaped
    once and each distinct real or imaginary part formatted once."""
    # Four pieces per entry, filled a block at a time by strided assignment:
    # the head, the escaped symbols of the leading factors; the tail, those
    # of the trailing factors and _RE; the re part and _IM; the im part and
    # _NEXT.  The trailing factors are the fewest, the last among them, whose
    # elements number at least sqrt(s), so about sqrt(s) heads and tails are
    # joined.  Each head leads one entry per tail in a row, under which the
    # tails cycle.  Escaping maps each character on its own, so escaped
    # symbols join into the escaped label.
    escaped = [[encode_basestring_ascii(sym)[1:-1] for sym in a] for a in levels]
    joiner = _joiner(levels)
    split, n_tails = len(escaped) - 1, len(escaped[-1])
    while n_tails * n_tails < len(values):
        split -= 1
        n_tails *= len(escaped[split])
    front, back = escaped[:split], escaped[split:]
    lead = joiner * bool(front)  # between a head and its tail
    tails = itertools.cycle([lead + joiner.join(syms) + _RE for syms in itertools.product(*back)])
    heads = map(joiner.join, itertools.product(*front))
    heads = itertools.chain.from_iterable(map(itertools.repeat, heads, itertools.repeat(n_tails)))
    res = _formatted(values.real, _IM)
    ims = _formatted(values.imag, _NEXT)
    ims[-1] = fmt_float(values[-1].imag) + _CLOSE
    out.append(_OPEN)
    pieces = [""] * 4 * min(len(res), _BLOCK)  # every block but the last fills the same list
    for start in range(0, len(res), _BLOCK):
        block = slice(start, start + _BLOCK)
        n = len(res[block])
        del pieces[4 * n :]
        pieces[0::4] = itertools.islice(heads, n)
        pieces[1::4] = itertools.islice(tails, n)
        pieces[2::4] = res[block].tolist()
        pieces[3::4] = ims[block].tolist()
        out.append("".join(pieces))


def _formatted(parts: np.ndarray, suffix: str) -> np.ndarray:
    """``fmt_float(x) + suffix`` of every part x, as an object array, formatting
    each distinct value once.

    Spectra of integer counts repeat few values.  Integer parts that span no
    more values than there are parts are told apart by their offset from the
    least, in linear passes; others by ``np.unique``, which sorts.  Adding
    0.0 drops the sign of -0.0 as ``fmt_float`` does, and one "%.12g"
    template formats all distinct values in one call, then ``fmt_float`` those
    of magnitude 1e12 or more, which it may print whole.  ``suffix`` holds no
    "%" and no NUL, which parts the formatted values.
    """
    lo, hi = float(parts.min()), float(parts.max())
    # NaN and infinities fail the span, and a part that is no integer the sum.
    offsets = (parts - lo).astype(np.intp) if hi - lo < len(parts) and lo.is_integer() else None
    if offsets is not None and (offsets + lo == parts).all():
        keys = np.flatnonzero(np.bincount(offsets))
        distinct, inverse = keys + lo, offsets  # key 0 and lo -0.0 add up to 0.0
    else:
        distinct, inverse = np.unique(parts + 0.0, return_inverse=True)
        keys = np.arange(len(distinct))
    text = (f"%.12g{suffix}\0" * len(distinct))[:-1] % tuple(distinct.tolist())
    table = np.empty(keys[-1] + 1, dtype=object)
    table[keys] = text.split("\0")
    big = np.flatnonzero(abs(distinct) >= 1e12)
    table[keys[big]] = [fmt_float(x) + suffix for x in distinct[big].tolist()]
    return table[inverse]


def jchar_report(summary: dict, levels, jchar: JCharVector, algorithm: str) -> list[str]:
    """The ``jchar --json`` report of ``jchar``, the spectrum of a design with
    ``summary`` and the symbols ``levels``: the pieces ``dumps`` would join and
    a newline, which are written in turn, so the megabytes of a large report
    are never joined or copied whole."""
    payload = {
        "design": {**summary, "symbols": levels},
        "groups": [st.literal() for st in jchar.structures],
        "algorithm": algorithm,
        "n_runs": jchar.n_runs,
        "values": functools.partial(_write_spectrum, levels, jchar.values),
    }
    return [*_pieces(payload), "\n"]


def jchar_text(levels, jchar: JCharVector) -> str:
    """The text-mode ``jchar`` table: one ``label value`` line per entry of
    ``jchar`` farther than ``spectra._residue_bound`` from zero (a NaN one included),
    as spectrum tables usually omit zeros, with each distinct value formatted once."""
    keep = ~(np.abs(jchar.values) <= _residue_bound(jchar.structures, jchar.n_runs))
    kept = jchar.values[keep].tolist()
    text = {z: fmt_complex(z) for z in set(kept)}
    labels = itertools.compress(element_labels(levels), keep.tolist())
    return "\n".join([f"{label} {text[z]}" for label, z in zip(labels, kept)]) + "\n"


def _write_counts(
    levels: Sequence[Sequence[str]], counts: Mapping[tuple[int, ...], int], out: list[str]
) -> None:
    """Write ``counts``, run multiplicities over the symbols ``levels`` as
    ``reconstruct`` returns them, as the list ``[{"run": [symbol, ...],
    "multiplicity": m}, ...]`` in the order of ``counts``, which for
    ``reconstruct``'s map is Yates order, in bulk: each symbol is escaped once
    and each run written as one string."""
    escaped = [[encode_basestring_ascii(sym) for sym in a] for a in levels]
    # map(list.__getitem__, escaped, run) gives escaped[i][run[i]] for each factor i.
    entries = (
        '{"run": [' + ", ".join(map(list.__getitem__, escaped, run)) + '], "multiplicity": '
        + int.__repr__(mult) + "}"
        for run, mult in counts.items()
    )
    out.append("[" + ", ".join(entries) + "]")


def reconstruct_report(jchar: JCharVector, levels, counts: Mapping[tuple[int, ...], int]) -> str:
    """The ``reconstruct --json`` report of ``counts``, the runs ``reconstruct``
    recovers from ``jchar`` over the symbols ``levels``, in one ``dumps`` call."""
    payload = {
        "groups": [st.literal() for st in jchar.structures],
        "n_runs": jchar.n_runs,
        "counts": functools.partial(_write_counts, levels, counts),
    }
    return dumps(payload) + "\n"


def read_jchar_report(data: bytes, source: str) -> tuple[JCharVector, list[list[str]] | None]:
    """The spectrum of a ``jchar --json`` report and its symbols, None if it has none;
    a DesignParseError naming ``source`` if ``data``, the report's UTF-8 bytes,
    is no such report."""
    try:
        doc = _load_report(data)
        del data  # megabytes for a large report, which the caller's peak need not hold
        if not isinstance(doc, dict):
            raise TypeError("report is not a JSON object")
        for key in ("groups", "n_runs", "values"):
            if key not in doc:
                raise ValueError(f"no {key!r} key")
        raw_runs = doc["n_runs"]
        if isinstance(raw_runs, bool):  # before int(): bool is an int subclass
            raise TypeError(f"n_runs {raw_runs!r} is not a number")
        n_runs = int(raw_runs)
        if n_runs != raw_runs:
            raise ValueError(f"n_runs {raw_runs!r} is not an integer")
        summary = doc.get("design", {})
        if not isinstance(summary, dict):
            raise TypeError("design is not an object")
        symbols = summary.get("symbols")
        values = _read_values(doc["values"])
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        jchar = JCharVector(values, n_runs, _strings(doc["groups"], "groups"))
        if symbols is not None:
            if not isinstance(symbols, list):
                raise TypeError(f"symbols {symbols!r} is not a list of lists")
            symbols = [_strings(a, "a symbols entry") for a in symbols]
            check_symbols(symbols, jchar.structures)
        return jchar, symbols
    except (  # ResourceLimitError: a group past groups.MAX_ORDER, which no report lists
        AttributeError, KeyError, OverflowError, RecursionError, ResourceLimitError, TypeError,
        ValueError,  # RecursionError: JSON nested past the parser's depth
    ) as exc:
        raise DesignParseError(f"{source} is not a jchar report: {exc}") from exc


def check_symbols(symbols: Sequence[Sequence[str]], structures) -> None:
    """A ValueError unless ``symbols`` gives each group of ``structures`` one distinct symbol
    per element: the check of a report's symbols against its groups or a --groups override."""
    orders, sizes = [st.order for st in structures], list(map(len, symbols))
    distinct = [len(set(a)) for a in symbols]
    if sizes != orders or distinct != orders:
        raise ValueError(
            f"symbols of sizes {sizes} ({distinct} distinct) do not fit the orders {orders}"
        )


def _strings(value, name: str) -> list[str]:
    """``value`` if it is a JSON list of strings; a TypeError naming ``name`` if not."""
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise TypeError(f"{name} {value!r} is not a list of strings")
    return value


def _load_report(data: bytes):
    """``json.loads`` of ``data``, a report's UTF-8 bytes, but a ``values`` list
    in jchar's layout is one complex array.

    If the list after the first ``"values": `` is in that layout,
    ``_layout_values`` reads it a slice of bytes at a time, so no entry's dict
    or label is ever made and the report is never decoded whole.  A JSON
    string holds no unescaped ``s"``, so the hit ends a key, and
    ``json.loads`` reads the text around the list with ``NaN`` in its place.
    The array is kept if that ``NaN`` is the one constant read and the
    top-level ``values``.  Any other report goes to ``json.loads`` whole, as
    text, which returns the same document or raises the stdlib's error.
    Bytes are decoded first, for ``json.loads`` would read bytes that lead with
    a NUL as UTF-16.
    """
    key = data.find(_VALUES)
    read = _layout_values(data, key + len(_VALUES)) if key >= 0 else None
    if read is not None:
        values, end = read
        constants = []  # NaN, Infinity and -Infinity each load as this list
        try:
            doc = json.loads(
                (data[:key] + _VALUES + b"NaN" + data[end:]).decode("utf-8"),
                parse_constant=lambda name: constants.append(name) or constants,
            )
        except (ValueError, RecursionError):  # JSONDecodeError and UnicodeDecodeError too
            doc = None
        if isinstance(doc, dict) and len(constants) == 1 and doc.get("values") is constants:
            doc["values"] = values
            return doc
    return json.loads(data.decode("utf-8"))


# The key before a report's values, and _OPEN and _NEXT, as the reader finds them.
_VALUES, _OPEN_BYTES, _NEXT_BYTES = (sep.encode("ascii") for sep in ('"values": ', _OPEN, _NEXT))
# Bytes per slice of _layout_values.  A slice but the last ends at the "}"
# of a _NEXT, which no label holds, for no label holds a quote.
_SLICE = 2**18
# With _LEAD, "}, ", in place of the list's "[", each entry is _NEXT, label,
# _RE, re, _IM, im; _QUOTES counts the quotes before each of these separators.
_LEAD = _NEXT.removesuffix(_OPEN[1:]).encode("ascii")
_ENTRY = (_NEXT, _RE, _IM)
_QUOTES = tuple(itertools.accumulate((sep.count('"') for sep in _ENTRY), initial=0))
# A backslash that starts no \uXXXX escape, jchar's form for non-ASCII characters, which
# holds no quote and escapes none; the search's end bounds the lookahead too.
_STRAY_ESCAPE = re.compile(rb"\\(?!u[0-9a-fA-F]{4})")


def _layout_values(data: bytes, idx: int):
    """The list at ``data[idx]`` as a complex array and its end, if it is in jchar's
    layout; None if not.

    Accepted: exactly the list ``_write_spectrum`` writes, with each label
    free of quotes, control and non-ASCII characters, and of backslashes but
    those that start ``\\uXXXX``; each part a JSON number; and no quote after
    the list.  ``json.loads`` reads such a list as its entries, and each part
    converts to float64 as ``_read_values`` converts it.  The list is checked
    in slices of about ``_SLICE`` bytes, so one of another form is given
    up within the first slice where it differs.
    """
    if not data.startswith(_OPEN_BYTES, idx):
        return None
    chunks = []
    lead, start = _LEAD, idx + 1  # _LEAD goes in the place of the "["
    while True:
        cut = data.find(_NEXT_BYTES, start + _SLICE)
        raw = lead + data[start : len(data) if cut < 0 else cut + 1]
        read = _layout_entries(raw, last=cut < 0)
        if read is None:
            return None
        values, close = read
        chunks.append(values)
        if cut < 0:  # _CLOSE ends the list at raw[close]
            return np.concatenate(chunks), start - len(lead) + close + len(_CLOSE)
        lead, start = b"", cut  # the next slice starts with this _NEXT, "}, " and all


def _layout_entries(raw: bytes, last: bool):
    """The values of the entries in ``raw`` and the index of its last "}", which
    starts _CLOSE if ``last``; None if ``raw`` is not such a slice."""
    b = np.frombuffer(raw, np.uint8)
    quotes = np.flatnonzero(b == ord('"'))
    if not quotes.size or quotes.size % _QUOTES[-1] or quotes[0] != _NEXT.index('"'):
        return None
    close = raw.find(_CLOSE.encode("ascii"), quotes[-1]) if last else len(raw) - 1
    # As int8, a control byte and a non-ASCII one are both below 0x20.
    if close < 0 or b[:close].view(np.int8).min() < 0x20 or (
        raw.find(b"\\", 0, close) >= 0 and _STRAY_ESCAPE.search(raw, 0, close)
    ):
        return None
    # Where each separator of each entry starts, by the first of its quotes.
    # Each separator found there holds its quotes, and they are the next ones
    # in ``quotes``, so the separators also fix where the entry's quotes are.
    at = [quotes[n :: _QUOTES[-1]] - sep.index('"') for n, sep in zip(_QUOTES, _ENTRY)]
    del quotes  # for a lower peak in the number readers
    if at[-1][-1] + len(_ENTRY[-1]) > len(raw):  # the last separator would pass the end
        return None
    for sep, starts in zip(_ENTRY, at):
        # The len(sep) bytes at every offset of raw, as one item each.
        runs = np.ndarray((len(raw) - len(sep) + 1,), f"V{len(sep)}", raw, strides=(1,))
        if runs[starts].tobytes() != sep.encode("ascii") * len(starts):
            return None
    # Every re, then every im, each the text between two separators.
    starts = np.concatenate((at[1] + len(_RE), at[2] + len(_IM)))
    stops = np.concatenate((at[2], at[0][1:], [close]))
    parts = _integers(b, starts, stops)
    if parts is None:
        parts = _numbers(b, starts, stops)
    if parts is None:
        return None
    values = np.empty(len(at[0]), dtype=np.complex128)
    values.real = parts[: len(values)]
    values.imag = parts[len(values) :]
    return values, close


def _integers(b: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """The integers written at ``b[starts:stops]``; None unless each matches
    ``-?(0|[1-9][0-9]{0,15})`` below 2**53, where every sum of its digits is exact."""
    negative = b[starts] == ord("-")
    starts = starts + negative
    width = stops - starts
    if width.min() < 1 or width.max() > 16:
        return None
    # One row per digit column, by its distance from the stop: numpy runs
    # along rows, and a row is as long as the slice has integers.
    columns = np.arange(width.max(), 0, -1)[:, None]
    digits = (b[stops - columns] - np.uint8(ord("0"))) * (columns <= width)
    if (digits > 9).any():  # bytes below "0" wrap past 9 in uint8
        return None
    values = 10.0 ** (columns[:, 0] - 1) @ digits  # exact below 2**53, and never below it above
    if values.max() >= 2**53 or ((b[starts] == ord("0")) & (width > 1)).any():
        return None  # a value past float64's integers, or a leading zero
    return (1.0 - 2.0 * negative) * values + 0.0  # + 0.0: "-0" is int 0, which loads as 0.0


def _numbers(b: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """The JSON numbers at ``b[starts:stops]`` as float64, each read as ``json.loads``
    reads it in the whole report and converted as ``_read_values`` converts it;
    None unless each span holds exactly one int or float."""
    width = stops - starts + 1  # each span and the byte after it, which becomes "," or "]"
    ends = np.cumsum(width)
    joined = b[np.arange(ends[-1]) + np.repeat(stops + 1 - ends, width)]
    joined[ends - 1] = ord(",")
    joined[-1] = ord("]")
    try:  # parse_constant=str leaves NaN and Infinity, which are not JSON, as strings
        numbers = json.loads(b"[" + joined.tobytes(), parse_constant=str)
        if len(numbers) != len(starts) or not set(map(type, numbers)) <= {int, float}:
            return None
        return np.fromiter(numbers, np.float64, len(numbers))
    except (ValueError, OverflowError, RecursionError):
        return None


def _read_values(entries) -> np.ndarray:
    """The ``re`` and ``im`` of a report's entries as one complex array.

    JSON numbers load as int or float; true, false, null and strings are
    rejected with a TypeError, as is an entry that is not an object with both.
    An array, which ``_load_report`` has already read, passes through.
    """
    if isinstance(entries, np.ndarray):
        return entries
    if not isinstance(entries, list):
        raise TypeError("values is not a list")
    for i, entry in enumerate(entries):  # the first bad entry in list order is named
        if not isinstance(entry, dict):
            raise TypeError(f"values entry {i} is not an object")
        if "re" not in entry or "im" not in entry:
            raise TypeError(f"values entry {i} has no {'im' if 're' in entry else 're'!r}")
        if type(entry["re"]) not in (int, float):
            raise TypeError(f"value {entry['re']!r} is not a number")
        if type(entry["im"]) not in (int, float):
            raise TypeError(f"value {entry['im']!r} is not a number")
    values = np.empty(len(entries), dtype=np.complex128)
    values.real = np.fromiter(map(operator.itemgetter("re"), entries), np.float64, len(entries))
    values.imag = np.fromiter(map(operator.itemgetter("im"), entries), np.float64, len(entries))
    return values


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
