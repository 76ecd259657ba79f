"""CLI behavior: subcommands, exit codes, formats, determinism, allocation."""

from __future__ import annotations

import ast
import codecs
import contextlib
import errno
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIXTURES, PEAK_MARGIN, spectrum_entries, traced
from wordlength import DesignParseError, cli, enumerate_structures, parse_design, render
from wordlength.cli import main

PAPER = str(FIXTURES / "paper_oa.txt")
HUGE = str(FIXTURES / "huge_counts.txt")
MIXED = str(FIXTURES / "mixed_symbols.txt")
WIDE = str(FIXTURES / "wide_binary.txt")

# stdout and exit code of every command, text and --json, on the paper fixture
# as recorded from an earlier build; "{spectrum}" stands for a `jchar --json`
# report under 4,2x2,4.  The mixed_symbols.txt entries pin spectrum rendering
# (irrational values, 1e-16 residues, comma-joined and \u-escaped labels) and
# the margins command; the wide_binary.txt entries pin margins over more than
# 32 factors, up to 2^40 cells counted by sorting codes, and over the empty subset;
# the tally_rows.txt entries pin the parse of repeated, shuffled and
# multiplied run lines under inferred alphabets; the columns_oa.txt entries
# pin the column layout with inferred alphabets and repeated columns, so both
# layouts are gated byte for byte; the pb12.txt entries (12
# runs, k = 11) pin the group-free commands where the pair kernel runs; the
# near_balanced.txt entries pin `gwlp --tol 0` and `invariance` deciding
# resolution by A_j > 0; the crossed_3x8.txt entries pin a spectrum at
# N = 1.96e10 whose float residues are neither a witness nor listed; the
# quarter_then_table.txt entries pin spectra whose transform switches from
# exact steps on parts of order 2 and 4 to table steps at a 3-level factor;
# the octacode.txt entries (the Z_4-linear octacode, 256 runs of 4^8) pin
# gwlp, jchar and invariance under 4 and under 2x2 on every factor, counts
# that test_invariance.py's TestOctacode checks against the dual code;
# the five entries after them pin each route that passes --groups literals to
# the library: compare under groups, dense gwlp, explicit invariance
# assignments, and a reconstruct override that fails (exit 2) and one that
# succeeds; the next entry pins gwlp on simplex_3_13.txt, whose 3^13 cells
# only the margin route can rate; the last two pin jchar on huge_counts.txt,
# in text and --json, whose integral parts of 13 digits print whole.
GOLDEN = json.loads((FIXTURES / "cli_golden.json").read_text(encoding="utf-8"))


def write_sampled_design(path, sizes, seed, symbols=None):
    """Write a design of 256 distinct runs drawn from the full factorial of
    ``sizes``, each factor's levels named 0..s-1 or by ``symbols``."""
    rng = np.random.default_rng(seed)
    runs = np.unravel_index(rng.choice(np.prod(sizes), 256, replace=False), sizes)
    if symbols is None:
        lines = ["levels: " + " ".join(map(str, sizes))]
        symbols = [str(j) for j in range(max(sizes))]
    else:
        lines = ["symbols: " + " | ".join([" ".join(symbols)] * len(sizes))]
    lines += [" ".join(symbols[j] for j in run) for run in zip(*runs)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def unescaped(text: str) -> str:
    """``text`` with each ``\\uXXXX`` escape, which holds no backslash here, as its character."""
    return re.sub(r"\\u([0-9a-f]{4})", lambda m: chr(int(m[1], 16)), text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLI = [sys.executable, "-m", "wordlength.cli"]


class SevenBytesAWrite(io.RawIOBase):
    """A raw stream that takes at most 7 bytes of each write, as a pipe may take part of one."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += b[:7]
        return min(len(b), 7)


def cli_env(unbuffered: bool = False) -> dict:
    """The environment of a ``python -m wordlength.cli`` process, whose
    standard output is block-buffered unless ``unbuffered``."""
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


class TestGwlpCommand:
    def test_paper_gwlp(self, capsys):
        code, out, _ = run(capsys, "gwlp", PAPER, "--groups", "4,4,4")
        assert code == 0
        assert out.splitlines()[0] == "A = (1, 0, 0, 3)"
        assert "resolution = 3, strength = 2" in out

    def test_margin_default_when_no_groups(self, capsys):
        code, out, _ = run(capsys, "gwlp", PAPER)
        assert code == 0
        assert out.splitlines()[0] == "A = (1, 0, 0, 3)"

    def test_all_algorithms_agree(self, capsys):
        outputs = set()
        for extra in (
            ["--groups", "4,4,4", "--algorithm", "dense"],
            ["--groups", "4,4,4", "--algorithm", "factorized"],
            ["--algorithm", "margin"],
        ):
            code, out, _ = run(capsys, "gwlp", PAPER, *extra)
            assert code == 0
            outputs.add(out.splitlines()[0])
        assert outputs == {"A = (1, 0, 0, 3)"}

    def test_tol_is_the_resolution_threshold(self, capsys, tmp_path):
        design = tmp_path / "design.txt"
        design.write_text("levels: 2 2\n0 1\n1 0 x2\n", encoding="utf-8")  # A = (1, 2/9, 1)
        code, out, _ = run(capsys, "gwlp", str(design))
        assert code == 0
        assert "resolution = 1, strength = 0" in out
        code, out, _ = run(capsys, "gwlp", str(design), "--tol", "0.5")
        assert code == 0
        assert "resolution = 2, strength = 1" in out

    def test_zero_tol_decides_by_a_positive_a_j(self, capsys, monkeypatch):
        # Counts 100000 and 100001: A_1 = 1 / 200001^2, below the default 1e-9.
        monkeypatch.chdir(FIXTURES.parent)
        code, out, _ = run(capsys, "gwlp", "fixtures/near_balanced.txt", "--tol", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["resolution"], doc["strength"], doc["tolerance"]) == (1, 0, 0)
        code, out, _ = run(capsys, "gwlp", "fixtures/near_balanced.txt")
        assert code == 0
        assert "resolution = none, strength = 1" in out

    def test_margin_with_groups_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gwlp", PAPER, "--groups", "4,4,4", "--algorithm", "margin")
        assert code == 1
        assert "margin" in err

    def test_dense_without_groups_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "gwlp", PAPER, "--algorithm", "dense")
        assert code == 1

    def test_group_size_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gwlp", PAPER, "--groups", "4,4,2x3")
        assert code == 1
        assert "order" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "gwlp", PAPER, "--groups", "4,4,4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["gwlp"] == [1, 0, 0, 3]
        assert doc["resolution"] == 3
        assert doc["strength"] == 2
        assert doc["groups"] == ["4", "4", "4"]
        assert doc["design"]["n_runs"] == 16


class TestJcharCommand:
    def test_json_entry_for_ccc(self, capsys):
        code, out, _ = run(capsys, "jchar", PAPER, "--groups", "2x2,2x2,2x2", "--json")
        assert code == 0
        assert '{"g": "ccc", "re": 16, "im": 0}' in out
        doc = json.loads(out)
        assert len(doc["values"]) == 64
        assert doc["n_runs"] == 16

    def test_text_omits_zeros(self, capsys):
        code, out, _ = run(capsys, "jchar", PAPER, "--groups", "2x2,2x2,2x2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "000 16"
        assert "aba -8" in lines
        assert "ccc 16" in lines
        assert len(lines) == 10  # 000 plus the nine nonzero V entries

    def test_complex_formatting(self, capsys):
        code, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4")
        assert code == 0
        lines = dict(line.rsplit(" ", 1) for line in out.splitlines())
        assert lines["aaa"] == "-6-2i"
        assert lines["aab"] == "4i"
        assert lines["aba"] == "-4i"
        assert lines["abb"] == "4+4i"
        assert lines["abc"] == "-4"
        assert lines["ccc"] == "-6+2i"

    def test_groups_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["jchar", PAPER])
        assert exc.value.code == 1


class TestReconstructCommand:
    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        assert code == 0
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        code, text, _ = run(capsys, "reconstruct", str(spectrum))
        assert code == 0
        reconstructed = parse_design(text)
        original = parse_design((FIXTURES / "paper_oa.txt").read_text())
        assert reconstructed == original

    def test_round_trip_past_a_hundred_million_runs(self, capsys, tmp_path):
        # N is about 1.5e8: cells of the rendered spectrum come back about 5e-6
        # from their counts, past 1e-6 but within the default 1e-11 * N.
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 9 * 10**6, size=(5, 7), endpoint=True)
        lines = [f"{a} {b} x{counts[a, b]}" for a in range(5) for b in range(7)]
        design = tmp_path / "design.txt"
        design.write_text("levels: 5 7\n" + "\n".join(lines) + "\n", encoding="utf-8")
        spectrum = tmp_path / "spectrum.json"
        run(capsys, "jchar", str(design), "--groups", "5,7", "--json", "--output", str(spectrum))
        code, text, err = run(capsys, "reconstruct", str(spectrum))
        assert (code, err) == (0, "")
        assert parse_design(text) == parse_design(design.read_text(encoding="utf-8"))
        # An explicit tolerance still wins.
        code, _, err = run(capsys, "reconstruct", str(spectrum), "--tol", "1e-6")
        assert code == 2
        assert "not an integer within 1e-06" in err

    def test_json_counts(self, capsys, tmp_path):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "2x2,2x2,2x2", "--json")
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        code, text, _ = run(capsys, "reconstruct", str(spectrum), "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["n_runs"] == 16
        assert len(doc["counts"]) == 16
        assert {"run": ["0", "0", "0"], "multiplicity": 1} in doc["counts"]

    def test_wrong_groups_is_data_error(self, capsys, tmp_path):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "2x2,2x2,2x2", "--json")
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        code, _, err = run(capsys, "reconstruct", str(spectrum), "--groups", "4,4,4")
        assert code == 2
        assert "integer" in err

    def test_malformed_spectrum_is_data_error(self, capsys, tmp_path):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")

        def edited(edit):
            doc = json.loads(out)
            edit(doc)
            return json.dumps(doc)

        bad = tmp_path / "bad.json"
        for text in (
            edited(lambda doc: doc["values"].pop()),
            edited(lambda doc: doc["groups"].__setitem__(1, "zz")),
            edited(lambda doc: doc["groups"].__setitem__(1, "100000000000031")),
            edited(lambda doc: doc["design"]["symbols"][2].pop()),
            edited(lambda doc: doc["values"][5].__setitem__("re", float("nan"))),
            edited(lambda doc: doc["values"][0].__setitem__("im", float("inf"))),
            edited(lambda doc: doc.__setitem__("n_runs", 99)),
            edited(lambda doc: doc.__setitem__("n_runs", 16.5)),
            # Past the float range: the default tolerance is still worked out.
            edited(lambda doc: doc.__setitem__("n_runs", 10**400)),
        ):
            bad.write_text(text, encoding="utf-8")
            code, _, err = run(capsys, "reconstruct", str(bad))
            assert code == 2, text
            assert err.startswith("wordlength: ")

        def zero_runs(doc):
            doc["n_runs"] = 0
            for entry in doc["values"]:
                entry.update(re=0, im=0)

        def object_in_g_then_no_re(doc):
            doc["values"][3]["g"] = {"h": 1}
            doc["values"][9].pop("re")

        def string_re_then_no_im(doc):
            doc["values"][3]["re"] = "x"
            doc["values"][9].pop("im")

        def null_im_then_bool_re(doc):
            doc["values"][2]["im"] = None
            doc["values"][5]["re"] = True

        def huge_value_and_bool_runs(doc):
            doc["values"][2]["re"] = 10**400
            doc["n_runs"] = True

        for text, message in (
            # JSON booleans are not numbers, although Python's bool is an int.
            (edited(lambda doc: doc["values"][3].__setitem__("im", False)), "not a number"),
            (edited(lambda doc: doc["values"][0].__setitem__("re", True)), "not a number"),
            (edited(lambda doc: doc.__setitem__("n_runs", True)), "not a number"),
            # An integer past the float range is a number, but no double.
            (edited(lambda doc: doc["values"][2].__setitem__("re", 10**400)), "too large"),
            # A string is not a list, although Python splits it into one.
            (edited(lambda doc: doc.__setitem__("groups", "444")), "not a list of strings"),
            (edited(lambda doc: doc["design"].__setitem__("symbols", ["0abc"] * 3)), "'0abc'"),
            (edited(lambda doc: doc["design"].__setitem__("symbols", 3)), "not a list of lists"),
            # Each alphabet has one distinct symbol per element of its group.
            (edited(lambda doc: doc["design"]["symbols"][0].append("c")), "do not fit"),
            (edited(lambda doc: doc["design"]["symbols"][0].__setitem__(3, "b")), "do not fit"),
            (
                '{"groups": [], "n_runs": 1, "values": [{"g": "", "re": 1, "im": 0}]}',
                "a spectrum needs at least one structure",
            ),
            (edited(zero_runs), "a spectrum needs at least one run"),
            # A file that is not JSON, or nests past the parser's depth, is named too.
            ("not json", "Expecting value: line 1 column 1 (char 0)"),
            ("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
            # A wrongly shaped report names what is wrong with it.
            ("[1]", "report is not a JSON object"),
            ('{"values": 3}', "is not a jchar report: no 'groups' key"),
            (edited(lambda doc: doc.pop("n_runs")), "is not a jchar report: no 'n_runs' key"),
            (edited(lambda doc: doc.pop("values")), "is not a jchar report: no 'values' key"),
            (edited(lambda doc: doc.__setitem__("design", [])), "design is not an object"),
            (edited(lambda doc: doc.__setitem__("values", {"x": 1})), "values is not a list"),
            (edited(lambda doc: doc.__setitem__("values", [1, 2])), "values entry 0 is not an object"),
            (edited(lambda doc: doc["values"][0].pop("im")), "values entry 0 has no 'im'"),
            (edited(lambda doc: doc["values"][9].pop("re")), "values entry 9 has no 're'"),
            # Reports the lean values reader cannot take read as json.loads reads them.
            (out.rstrip()[:-1] + ', "values": [1, 2]}', "values entry 0 is not an object"),
            (edited(object_in_g_then_no_re), "values entry 9 has no 're'"),
            # Of several bad entries, the first in list order is named, whatever is wrong with it.
            (edited(string_re_then_no_im), "value 'x' is not a number"),
            (edited(null_im_then_bool_re), "value None is not a number"),
            (edited(lambda doc: doc.__setitem__("values", [])), "spans 64 elements, spectrum has 0"),
            ("\ufeff\ufeff" + out, "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1"),
            # The values are read with the document, but n_runs is still checked first.
            (edited(huge_value_and_bool_runs), "n_runs True is not a number"),
        ):
            bad.write_text(text, encoding="utf-8")
            code, _, err = run(capsys, "reconstruct", str(bad))
            assert code == 2, text
            assert err.startswith(f"wordlength: {bad} is not a jchar report: ")
            assert message in err
        # A float that is an integer is still a run count.
        bad.write_text(edited(lambda doc: doc.__setitem__("n_runs", 16.0)), encoding="utf-8")
        assert run(capsys, "reconstruct", str(bad))[0] == 0
        # The last of two values keys wins, and keys other than re and im go
        # unread, whatever they hold.
        bad.write_text(out, encoding="utf-8")
        expected = run(capsys, "reconstruct", str(bad))
        assert expected[0] == 0
        for text in (
            '{"values": [1, 2], ' + out[1:],
            edited(lambda doc: doc["values"][3].__setitem__("g", {"h": 1})),
            edited(lambda doc: doc["values"][5].update(x={"re": "1"}, y=[None])),
        ):
            bad.write_text(text, encoding="utf-8")
            assert run(capsys, "reconstruct", str(bad)) == expected, text

    def test_values_that_open_no_list_go_to_json_loads(self, capsys, tmp_path):
        # The lean reader takes over only at the "[" of its layout; past any
        # other character it would read the entries and accept the report.
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        text = out.replace('"values": [', '"values": x', 1)
        with pytest.raises(json.JSONDecodeError) as refusal:
            json.loads(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "reconstruct", str(bad))
        assert (code, out) == (2, "")
        assert err == f"wordlength: {bad} is not a jchar report: {refusal.value}\n"

    def test_symbols_no_design_file_holds_are_a_data_error_in_text_only(self, capsys, tmp_path):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        doc = json.loads(out)
        spectrum = tmp_path / "spectrum.json"
        for symbol in ["#", "b c", "", "|", "\ud800"]:
            symbols = doc["design"]["symbols"][1] = ["0", "a", symbol, "c"]
            spectrum.write_text(json.dumps(doc), encoding="utf-8")
            code, text, err = run(capsys, "reconstruct", str(spectrum))
            assert (code, text) == (2, "")
            assert err == (
                f"wordlength: {spectrum} is not a jchar report: "
                f"factor 2's symbol {symbol!r} cannot be written to a design file\n"
            )
            # JSON holds any symbol, so the JSON report still names every run.
            code, text, err = run(capsys, "reconstruct", str(spectrum), "--json")
            assert (code, err) == (0, "")
            runs = [entry["run"][1] for entry in json.loads(text)["counts"]]
            assert sorted(runs) == sorted(symbols * 4)
        # Run (0, 0, 0) comes first; as "a: 0 0" it would read as a header.
        doc["design"]["symbols"] = [["a:", "b", "c", "d"]] + [["0", "1", "2", "3"]] * 2
        spectrum.write_text(json.dumps(doc), encoding="utf-8")
        code, text, err = run(capsys, "reconstruct", str(spectrum))
        assert (code, text) == (2, "")
        assert "factor 1's symbol 'a:' makes the first run line 'a: 0 0' read as a header" in err

    def test_undecodable_report_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"groups": ["\xff"]}')
        code, out, err = run(capsys, "reconstruct", str(bad))
        assert (code, out) == (2, "")
        assert err == f"wordlength: cannot read {bad}: byte 13 is not UTF-8 (invalid start byte)\n"

    # reconstruct reads a report's bytes as they are when they are ASCII with no
    # carriage return, and any other report as text, decoded as a design file is.
    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: "\ufeff" + text,
            lambda text: unescaped(text),
            lambda text: "\ufeff" + unescaped(text),
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\r"),
        ],
        ids=["bom", "raw-non-ascii", "bom-raw-non-ascii", "crlf", "cr"],
    )
    def test_reports_read_as_text_give_the_runs_of_the_bytes(self, capsys, tmp_path, edit):
        _, out, _ = run(capsys, "jchar", MIXED, "--groups", "3,5,2x2", "--json")
        assert "\\u00e4" in out and out.isascii()
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        expected = run(capsys, "reconstruct", str(spectrum))
        assert expected[0] == 0
        spectrum.write_bytes(edit(out).encode("utf-8"))
        assert run(capsys, "reconstruct", str(spectrum)) == expected

    @pytest.mark.parametrize(
        ("byte", "reason"),
        [(b"\xff", "invalid start byte"), (b"\xc3", "invalid continuation byte")],
    )
    def test_an_invalid_byte_in_the_values_names_its_offset(self, capsys, tmp_path, byte, reason):
        _, out, _ = run(capsys, "jchar", MIXED, "--groups", "3,5,2x2", "--json")
        data = out.encode("ascii")
        at = data.index(b'"g": "', data.index(b'"values": ')) + len(b'"g": "')
        bad = tmp_path / "bad.json"
        bad.write_bytes(data[:at] + byte + data[at:])
        code, text, err = run(capsys, "reconstruct", str(bad))
        assert (code, text) == (2, "")
        assert err == f"wordlength: cannot read {bad}: byte {at} is not UTF-8 ({reason})\n"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\r"),
            lambda text: "\x00" + text,
            lambda text: "\x00" + text.replace("\n", "\r\n"),
        ],
        ids=["crlf", "cr", "nul", "nul-crlf"],
    )
    @pytest.mark.parametrize("indent", [None, 2])
    def test_a_malformed_report_is_named_as_its_text_is(self, capsys, tmp_path, edit, indent):
        # json.loads of the text with each line end read as "\n" gives the
        # message, offsets and all; a NUL first does not make the bytes UTF-16.
        _, out, _ = run(capsys, "jchar", MIXED, "--groups", "3,5,2x2", "--json")
        text = out if indent is None else json.dumps(json.loads(out), indent=indent) + "\n"
        text = text.replace('"n_runs": 16', '"n_runs": 16 17')
        with pytest.raises(json.JSONDecodeError) as refusal:
            json.loads(edit(text).replace("\r\n", "\n").replace("\r", "\n"))
        bad = tmp_path / "bad.json"
        bad.write_bytes(edit(text).encode("ascii"))
        code, out, err = run(capsys, "reconstruct", str(bad))
        assert (code, out) == (2, "")
        assert err == f"wordlength: {bad} is not a jchar report: {refusal.value}\n"

    def test_counts_past_int64_are_exact(self, capsys, tmp_path):
        # Each cell reconstructs to 1e19, past the largest int64.
        spectrum = tmp_path / "huge.json"
        spectrum.write_text(
            '{"groups": ["2"], "n_runs": 20000000000000000000, "values": '
            '[{"g": "0", "re": 2e19, "im": 0}, {"g": "1", "re": 0, "im": 0}]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "reconstruct", str(spectrum))
        assert (code, err) == (0, "")
        assert out == "symbols: 0 1\n0 x10000000000000000000\n1 x10000000000000000000\n"

    def test_counts_past_5e10_round_trip_exactly(self, capsys, tmp_path):
        # N = 6,351,008,287,050 under 4,4, whose steps are exact.  Written at 12
        # significant digits and read with a default tol of 1e-11 * N, past 1/2,
        # four cells came back off by one with exit 0.
        report = tmp_path / "huge.json"
        argv = ["jchar", HUGE, "--groups", "4,4", "--json", "--output", str(report)]
        assert run(capsys, *argv)[0] == 0
        text = report.read_text(encoding="utf-8")
        assert json.loads(text)["values"][0] == {"g": "00", "re": 6351008287050, "im": 0}
        code, out, err = run(capsys, "reconstruct", str(report))
        assert (code, err) == (0, "")
        assert parse_design(out) == parse_design((FIXTURES / "huge_counts.txt").read_text("utf-8"))
        # The report with every part at 12 significant digits, as it was written
        # before: nine 13-digit parts lose a digit, and no cell is an integer.
        head, values = text.split('"values": ')
        values = re.sub(r"-?[0-9]{13,}", lambda m: "%.12g" % float(m[0]), values)
        assert values.startswith('[{"g": "00", "re": 6.35100828705e+12, "im": 0}')
        rounded = tmp_path / "rounded.json"
        rounded.write_text(head + '"values": ' + values, encoding="utf-8")
        code, out, err = run(capsys, "reconstruct", str(rounded))
        assert (code, out) == (2, "")
        assert "not an integer within 0.0" in err
        # A tolerance of 1/2 passes every cell: a usage error.
        code, out, err = run(capsys, "reconstruct", str(report), "--tol", "0.5")
        assert (code, out) == (1, "")
        assert err == "wordlength: tolerance 0.5 passes every cell; it must be below 1/2\n"

    def test_counts_past_2_53_are_refused(self, capsys, tmp_path):
        # Float64 rounds the counts to 2**53 and 2**53 + 4, and chi_0 = 2**54 + 4
        # is written at 12 significant digits, so no cell reads back whole.
        design = tmp_path / "past.txt"
        design.write_text("levels: 2\n0 x9007199254740993\n1 x9007199254740995\n")
        report = tmp_path / "past.json"
        argv = ["jchar", str(design), "--groups", "2", "--json", "--output", str(report)]
        assert run(capsys, *argv)[0] == 0
        code, out, _ = run(capsys, "reconstruct", str(report))
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("value", ["1", None, True, False, [1], {"re": 1}])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_numeric_value_is_data_error(self, capsys, tmp_path, part, value):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        doc = json.loads(out)
        doc["values"][7][part] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, text, err = run(capsys, "reconstruct", str(bad))
        assert (code, text) == (2, "")
        assert f"is not a jchar report: value {value!r} is not a number" in err

    def test_override_of_wrong_size_is_usage_error(self, capsys, tmp_path):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        code, _, err = run(capsys, "reconstruct", str(spectrum), "--groups", "2,2,2")
        assert code == 1
        assert "spans 8 elements" in err
        # Same total size, but the factor orders do not match the report's symbols.
        design = tmp_path / "mixed.txt"
        design.write_text("symbols: p q r s | u v\np u\nq v\nr u\ns v\n", encoding="utf-8")
        _, out, _ = run(capsys, "jchar", str(design), "--groups", "4,2", "--json")
        spectrum.write_text(out, encoding="utf-8")
        code, out, err = run(capsys, "reconstruct", str(spectrum), "--groups", "2,4")
        assert (code, out) == (1, "")
        assert "[2, 4]" in err and "[4, 2]" in err


class TestInvarianceCommand:
    def test_all_assignments_message(self, capsys):
        code, out, _ = run(capsys, "invariance", PAPER, "--groups", "all")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("8 assignments")
        assert "max GWLP deviation < 1e-08" in first
        assert "witness aaa: -6-2i vs 8" in first

    def test_explicit_assignments(self, capsys):
        code, out, _ = run(
            capsys, "invariance", PAPER, "--groups", "4,4,4", "--groups", "2x2,2x2,2x2"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("2 assignments")
        assert "witness aaa: -6-2i vs 8" in out

    def test_default_is_all(self, capsys):
        code, out, _ = run(capsys, "invariance", PAPER)
        assert code == 0
        assert out.splitlines()[0].startswith("8 assignments")

    def test_impossible_tolerance_fails_verification(self, capsys, tmp_path):
        # A 6-level factor brings inexact sixth roots, so the routes deviate
        # by a few ulps; an absurd tolerance must turn that into exit 3.
        noisy = tmp_path / "noisy.txt"
        noisy.write_text(
            "levels: 6 2\n"
            + "\n".join(f"{a} {b}" for a in range(6) for b in range(2) if (a + b) % 2 == 0),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "invariance", str(noisy), "--tol", "1e-300")
        assert code == 3
        assert "EXCEEDS" in out
        code, _, _ = run(capsys, "invariance", str(noisy))
        assert code == 0

    def test_zero_tolerance_met_exactly_reads_equal(self, capsys):
        # The verdict is max_dev <= tol, and the paper design's deviation is 0.
        code, out, _ = run(
            capsys, "invariance", PAPER, "--groups", "4,4,4", "--groups", "2x2,2x2,2x2",
            "--tol", "0",
        )
        assert code == 0
        assert out.startswith("2 assignments + margin route, max GWLP deviation = 0; ")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "invariance", PAPER, "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["assignments"]) == 8
        assert doc["invariant"] is True
        assert doc["margin_gwlp"] == [1, 0, 0, 3]
        assert doc["witness"]["g"] == "aaa"
        assert doc["witness"]["first_value"] == {"re": -6, "im": -2}
        assert doc["witness"]["other_value"] == {"re": 8, "im": 0}
        assert doc["resolution"] == 3

    def test_all_with_explicit_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "invariance", PAPER, "--groups", "all", "--groups", "4,4,4")
        assert code == 1

    def test_repeated_all_is_usage_error_naming_the_repeat(self, capsys):
        code, out, err = run(capsys, "invariance", PAPER, "--groups", "all", "--groups", "all")
        assert (code, out) == (1, "")
        assert err == "wordlength: --groups all is given 2 times; give it once\n"


class TestMarginsCommand:
    def test_singleton(self, capsys):
        code, out, _ = run(capsys, "margins", PAPER, "--subset", "1")
        assert code == 0
        assert out.splitlines()[:4] == ["0 4", "a 4", "b 4", "c 4"]
        assert "subset_norm = 4" in out

    def test_empty_subset(self, capsys):
        code, out, _ = run(capsys, "margins", PAPER)
        assert code == 0
        assert out.splitlines()[0] == "() 16"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "margins", PAPER, "--subset", "1,2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["subset"] == [1, 2]
        assert len(doc["cells"]) == 16
        assert all(cell["count"] == 1 for cell in doc["cells"])
        assert doc["subset_norm"] == 4

    @pytest.mark.parametrize(
        "subset, token",
        [("+1,\u0663", "+1"), ("1,\u0663", "\u0663"), ("1_0", "1_0"), ("1,-2", "-2"), ("1,,2", "")],
    )
    def test_subset_positions_are_ascii_digits(self, capsys, subset, token):
        code, out, err = run(capsys, "margins", PAPER, "--subset", subset)
        assert (code, out) == (1, "")
        assert err == f"wordlength: bad subset position {token!r}; want ASCII digits\n"

    def test_spaces_around_subset_positions_are_ignored(self, capsys):
        assert run(capsys, "margins", PAPER, "--subset", " 1 , 3") == run(
            capsys, "margins", PAPER, "--subset", "1,3"
        )

    def test_bad_subset(self, capsys):
        code, _, _ = run(capsys, "margins", PAPER, "--subset", "0")
        assert code == 1
        code, _, _ = run(capsys, "margins", PAPER, "--subset", "1,foo")
        assert code == 1
        code, _, _ = run(capsys, "margins", PAPER, "--subset", "4")
        assert code == 1
        code, _, err = run(capsys, "margins", PAPER, "--subset", "9")
        assert code == 1
        assert err == "wordlength: subset position 9 out of range for 3 factors\n"


class TestCompareCommand:
    def test_tie_against_itself(self, capsys):
        code, out, _ = run(capsys, "compare", PAPER, PAPER)
        assert code == 0
        assert out.splitlines()[-1] == "tie"

    def test_orders_by_aberration(self, capsys, tmp_path):
        # A single repeated run has the worst possible pattern at every j.
        worse = tmp_path / "worse.txt"
        worse.write_text("symbols: 0 a b c | 0 a b c | 0 a b c\n0 0 0 x16\n")
        code, out, _ = run(capsys, "compare", PAPER, str(worse))
        assert code == 0
        assert "first-better (first difference at A_1)" in out
        code, out, _ = run(capsys, "compare", str(worse), PAPER)
        assert code == 0
        assert "second-better" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "compare", PAPER, PAPER, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "tie"
        assert doc["index"] is None

    def test_errors_name_the_design_they_come_from(self, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("levels: 4 4 4\n0 1 2\n0 1\n", encoding="utf-8")
        for argv in ([PAPER, str(short)], [str(short), PAPER]):
            code, out, err = run(capsys, "compare", *argv)
            assert (code, out) == (2, "")
            assert err == f"wordlength: {short}: line 3: expected 3 symbols, got 2\n"
        code, out, err = run(capsys, "gwlp", str(short))  # one file: nothing to tell apart
        assert (code, out) == (2, "")
        assert err == "wordlength: line 3: expected 3 symbols, got 2\n"
        binary = tmp_path / "binary.txt"
        binary.write_text("levels: 4 4 2\n0 1 1\n1 0 0\n", encoding="utf-8")
        code, out, err = run(capsys, "compare", PAPER, str(binary), "--groups", "4,4,4")
        assert (code, out) == (1, "")
        assert err == f"wordlength: {binary}: factor 3 has 2 levels but structure 4 has order 4\n"

    def test_factor_counts_are_checked_before_the_patterns(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_pattern", None)
        pb12 = str(FIXTURES / "pb12.txt")
        code, out, err = run(capsys, "compare", PAPER, pb12)
        assert (code, out) == (1, "")
        assert err == (
            f"wordlength: {PAPER} has 3 factors but {pb12} has 11; "
            "only designs with the same number of factors compare\n"
        )


class TestEnumerateGroupsCommand:
    def test_order_eight(self, capsys):
        code, out, _ = run(capsys, "enumerate-groups", "8")
        assert code == 0
        assert out == "8; 4x2; 2x2x2\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate-groups", "12", "--json")
        assert code == 0
        assert json.loads(out) == {"order": 12, "structures": ["4x3", "2x2x3"]}

    def test_zero_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "enumerate-groups", "0")
        assert code == 1

    @pytest.mark.parametrize("order", ["1_6", "+8", "\u0668", "-8", "8.0", "0x8", ""])
    def test_order_is_ascii_digits(self, capsys, order):
        code, out, err = run(capsys, "enumerate-groups", order)
        assert (code, out) == (1, "")
        assert err == f"wordlength: bad order {order!r}; want ASCII digits\n"

    @pytest.mark.parametrize(
        "argv, order",
        [
            (["enumerate-groups", "1000000000000000003"], 1000000000000000003),
            (["gwlp", PAPER, "--groups", "100000000000031,4,4"], 100000000000031),
        ],
    )
    def test_orders_past_the_cap_are_refused_before_factoring(self, capsys, argv, order):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"wordlength: order {order} exceeds the cap 4294967296 on group orders\n"

    def test_cyclic_tables_past_the_table_cap_are_refused(self, capsys, tmp_path):
        # 4099 is prime, so every route would need one 4099 x 4099 table.
        design = tmp_path / "design.txt"
        design.write_text("levels: 4099\n0\n1\n", encoding="utf-8")
        report = tmp_path / "report.json"
        values = [{"re": 0, "im": 0}] * 4099
        report.write_text(json.dumps({"groups": ["4099"], "n_runs": 2, "values": values}))
        for argv in (
            ["jchar", str(design), "--groups", "4099"],
            ["gwlp", str(design), "--groups", "4099"],
            ["invariance", str(design)],
            ["reconstruct", str(report)],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == "wordlength: character table of Z_4099 exceeds the cap 4096\n"

    @pytest.mark.parametrize(
        "text, total",
        [
            ("levels: 3000000\n0\n1\n", 3000000),
            # Each size is within the cap; the header's total is not.
            ("levels: 1048576 2\n0 0\n", 1048578),
        ],
    )
    def test_levels_header_past_the_densify_cap_is_data_error(self, capsys, tmp_path, text, total):
        design = tmp_path / "design.txt"
        design.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "gwlp", str(design))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        message = f"levels header declares {total} levels, above the cap 1048576"
        assert err == f"wordlength: line 1: {message}\n"


class TestErrorsAndPlumbing:
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "1e-9x"])
    def test_tol_must_be_a_finite_nonnegative_number(self, capsys, tmp_path, tol):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        for argv in (
            ["gwlp", PAPER],
            ["compare", PAPER, PAPER],
            ["invariance", PAPER],
            ["reconstruct", str(spectrum)],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"--tol={tol}"])
            assert exc.value.code == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--tol: want a finite number >= 0" in captured.err

    # float() takes "_" between digits and non-ASCII digits and spaces; no
    # other number the CLI reads does.
    @pytest.mark.parametrize("tol", ["1_0", "1e-1_0", "\u0661e-3", "\uff11", "0.5\u00a0"])
    def test_tol_reads_ascii_without_underscores(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["gwlp", PAPER, f"--tol={tol}"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (1, "")
        assert f"--tol: want a finite number >= 0, got {tol!r}" in captured.err

    @pytest.mark.parametrize("groups", [["--groups="], ["--groups", "4,,4"]])
    @pytest.mark.parametrize("command", ["gwlp", "compare", "jchar", "invariance", "reconstruct"])
    def test_empty_structure_literal_is_usage_error(self, capsys, tmp_path, command, groups):
        # The same literal grammar for every command: an empty --groups value
        # or an empty entry in it is refused, never read as "no --groups".
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        inputs = {"compare": [PAPER, PAPER], "reconstruct": [str(spectrum)]}
        code, out, err = run(capsys, command, *inputs.get(command, [PAPER]), *groups)
        assert (code, out) == (1, "")
        assert err == "wordlength: bad structure literal ''\n"

    def test_zero_tol_means_exact_comparison(self, capsys, tmp_path):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        for argv in (
            ["compare", PAPER, PAPER],
            ["gwlp", PAPER],
            ["invariance", PAPER],
            ["reconstruct", str(spectrum)],
        ):
            code, _, _ = run(capsys, *argv, "--tol", "0")
            assert code == 0, argv

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "gwlp", "/nonexistent/design.txt")
        assert code == 2
        assert "cannot read" in err

    def test_undecodable_design_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"levels: 2 2\n0 1\n\xff 0\n")
        code, out, err = run(capsys, "gwlp", str(bad))
        assert (code, out) == (2, "")
        assert err == f"wordlength: cannot read {bad}: byte 16 is not UTF-8 (invalid start byte)\n"

    def test_leading_byte_order_mark_is_ignored(self, capsys, tmp_path):
        _, report, _ = run(capsys, "jchar", PAPER, "--groups", "4,2x2,4", "--json")
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        for command, text in (("gwlp", "levels: 2 2\n0 1\n1 0\n"), ("reconstruct", report)):
            plain.write_bytes(text.encode())
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
            expected = run(capsys, command, str(plain))
            assert expected[0] == 0 and expected[1]
            assert run(capsys, command, str(marked)) == expected

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n0\n", encoding="utf-8")
        code, _, err = run(capsys, "gwlp", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_package_exports_resolve_and_are_sorted(self):
        import wordlength

        assert [name for name in wordlength.__all__ if not hasattr(wordlength, name)] == []
        assert wordlength.__all__ == sorted(wordlength.__all__)
        assert "SubsetNorm" not in wordlength.__all__

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "gwlp", PAPER, "--json", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["gwlp"] == [1, 0, 0, 3]

    def test_unwritable_output_is_data_error(self, capsys, tmp_path):
        for target in (tmp_path / "missing" / "report.txt", tmp_path):
            code, out, err = run(capsys, "gwlp", PAPER, "--output", str(target))
            assert code == 2
            assert out == ""
            assert err.startswith(f"wordlength: cannot write {target}: ")
            assert err.count("\n") == 1

    # A block-buffered stdout still holds what a failed write left, which the
    # interpreter's flush at exit writes again, so each case runs both ways.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        ("redirect", "error"), [(">/dev/full", errno.ENOSPC), (">&-", errno.EBADF)],
        ids=["full", "closed"],
    )
    def test_a_failed_write_to_standard_output_is_data_error(self, unbuffered, redirect, error):
        if redirect == ">/dev/full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        result = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", *CLI, "enumerate-groups", "8"],
            capture_output=True, text=True, timeout=30, env=cli_env(unbuffered),
        )
        assert result.returncode == 2
        assert result.stderr == (
            f"wordlength: cannot write standard output: {os.strerror(error)}\n"
        )

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_pipe_closed_early_is_data_error(self, tmp_path, unbuffered):
        # The 4^8 report is 2.5 MB, more than a pipe holds, so a write meets
        # the closed pipe.
        design_file = tmp_path / "design.txt"
        write_sampled_design(design_file, (4,) * 8, 48)
        argv = ["jchar", str(design_file), "--groups", "4,2x2,4,2x2,4,4,2x2,4", "--json"]
        with subprocess.Popen(
            [*CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(unbuffered)
        ) as proc:
            assert proc.stdout.read(10) == b'{"design":'
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 2
        assert err == f"wordlength: cannot write standard output: {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.parametrize("jchar", [False, True], ids=["enumerate-groups", "jchar-json"])
    def test_unbuffered_standard_output_writes_every_byte(self, capsys, tmp_path, jchar):
        # Under -u, sys.stdout is a TextIOWrapper straight over the raw stream,
        # and it drops the rest of a write that the stream takes only in part.
        argv = ["enumerate-groups", "16"]
        if jchar:
            design_file = tmp_path / "design.txt"
            write_sampled_design(design_file, (4,) * 6, 6)
            argv = ["jchar", str(design_file), "--groups", "4,2x2,4,2x2,2x2,4", "--json"]
        _, expected, _ = run(capsys, *argv)
        raw = SevenBytesAWrite()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        assert raw.data.decode() == expected

    @pytest.mark.parametrize("argv", [["gwlp"], ["invariance"], ["compare", WIDE]])
    def test_margin_route_refuses_forty_factors(self, argv):
        # A fresh process with a timeout, so that an uncapped 2^40-subset loop
        # fails the test instead of hanging the suite.
        result = subprocess.run(
            [*CLI, *argv, WIDE], capture_output=True, text=True, timeout=30, env=cli_env()
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "wordlength: margin route over k = 40 factors needs 2^40 subsets, "
            "above the cap 1048576\n"
        )

    @pytest.mark.parametrize(
        ("power", "argv"),
        [
            (200, ["margins", "D"]),
            (400, ["gwlp", "D", "--groups", "2,2"]),
            (400, ["invariance", "D"]),
            (400, ["compare", "D", "D", "--groups", "2,2"]),
            (400, ["jchar", "D", "--groups", "2,2"]),
        ],
    )
    def test_a_value_past_the_float_range_is_a_usage_error(self, capsys, tmp_path, power, argv):
        # The margin norm passes float64's range at N = 10^200, and the count
        # itself at 10^400; each command exits 1 as at a cap.
        design = tmp_path / "huge.txt"
        design.write_text(f"levels: 2 2\n0 0 x{10**power}\n1 1\n", encoding="utf-8")
        code, out, err = run(capsys, *(str(design) if a == "D" else a for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("wordlength: a count, spectrum or norm passed the float range (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        ("argv", "pattern"),
        [
            (["gwlp", "D", "--groups", "2,2"], "A = (1, 2, 1)"),
            (["invariance", "D"], "A = (1, 2, 1)"),
            (["compare", "D", "D", "--groups", "2,2"], "A(first)  = (1, 2, 1)"),
        ],
    )
    def test_the_character_route_reads_a_run_total_whose_square_passes_the_float_range(
        self, capsys, tmp_path, argv, pattern
    ):
        # N = 10^200 + 1: N^2 passes float64's range but 2N does not, so the
        # spectrum is finite and each |chi| is divided by N before it is squared.
        design = tmp_path / "huge.txt"
        design.write_text(f"levels: 2 2\n0 0 x{10**200}\n1 1\n", encoding="utf-8")
        code, out, err = run(capsys, *(str(design) if a == "D" else a for a in argv))
        assert (code, err) == (0, "")
        assert pattern in out.splitlines()

    @pytest.mark.parametrize(
        ("argv", "lines"),
        [
            (["gwlp", "D", "--groups", "3"], ["resolution = none, strength = 1"]),
            (["invariance", "D"], ["A = (1, 0)", "resolution = none, strength = 1"]),
            (["compare", "D", "D", "--groups", "3"], ["tie"]),
        ],
    )
    def test_three_levels_each_counted_ten_to_the_305_answer_as_the_margin_route(
        self, capsys, tmp_path, argv, lines
    ):
        # N = 3e305, between 1.34e154 (N^2 past float64) and half float64's
        # maximum; the margin route gives A = (1, 0), resolution none, strength 1.
        design = tmp_path / "big.txt"
        design.write_text("levels: 3\n" + f"0 x{10**305}\n1 x{10**305}\n2 x{10**305}\n",
                          encoding="utf-8")
        assert run(capsys, "gwlp", str(design))[1] == "A = (1, 0)\nresolution = none, strength = 1\n"
        code, out, err = run(capsys, *(str(design) if a == "D" else a for a in argv))
        assert (code, err) == (0, "")
        assert set(lines) <= set(out.splitlines())
        # The character route's A_1 is a float residue of the Z_3 table, far below 1e-9.
        for line in out.splitlines():
            if line.startswith("A"):
                assert float(line.partition("(1, ")[2].rstrip(")")) < 1e-20

    def test_a_class_sum_past_the_float_range_is_scaled_first(self, capsys, tmp_path):
        # N = 10^154 on one level: N^2 = 1e308 is in range, but A_1's class
        # sum, 2N^2, is not: squared before the division, A_1 would read inf.
        design = tmp_path / "big.txt"
        design.write_text(f"levels: 3\n0 x{10**154}\n", encoding="utf-8")
        for argv in (["gwlp", str(design)], ["gwlp", str(design), "--groups", "3"],
                     ["invariance", str(design)]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert "A = (1, 2)" in out.splitlines()

    def test_the_margin_route_has_no_float_range(self, capsys, tmp_path):
        design = tmp_path / "huge.txt"
        design.write_text(f"levels: 2 2\n0 0 x{10**200}\n1 1\n", encoding="utf-8")
        code, out, err = run(capsys, "gwlp", str(design))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "A = (1, 2, 1)"

    @pytest.mark.parametrize(
        ("sizes", "options"),
        [
            ((2, 2), ["--groups", "2,2"]),
            ((2, 2), ["--groups", "2,2", "--json"]),
            ((2, 2), ["--groups", "2,2", "--algorithm", "dense"]),
            ((4,), ["--groups", "4"]),
        ],
    )
    def test_jchar_refuses_a_run_total_past_the_float_range(
        self, capsys, tmp_path, sizes, options
    ):
        # Each count fits float64 but N = 3e308 does not, so the transform's
        # first sum is inf; the dense counts refuse 2N past the range first.
        design = tmp_path / "big.txt"
        design.write_text(huge_pair_design(sizes, 15 * 10**307), encoding="utf-8")
        code, out, err = run(capsys, "jchar", str(design), *options)
        assert (code, out) == (1, "")
        assert err.startswith("wordlength: a count, spectrum or norm passed the float range (")
        assert err.count("\n") == 1

    def test_jchar_takes_a_run_total_up_to_half_the_float_range(self, capsys, tmp_path):
        # 2N = 1.6e308 is in range: every value is finite (a RuntimeWarning
        # would fail the test), and the text lists the two nonzero entries.
        design = tmp_path / "big.txt"
        design.write_text(huge_pair_design((2, 2), 4 * 10**307), encoding="utf-8")
        code, out, err = run(capsys, "jchar", str(design), "--groups", "2,2")
        assert (code, err) == (0, "")
        assert out == "00 8e+307\n11 8e+307\n"

    def test_jchar_lists_no_residue_at_a_run_total_past_two_to_the_thousand(
        self, capsys, tmp_path
    ):
        # N = 3e305 > 2^1000: the residue bound scales with N itself, so the
        # 1e289 float residues of the two zero values are not listed.
        design = tmp_path / "big.txt"
        runs = "".join(f"{level} x{10**305}\n" for level in range(3))
        design.write_text("levels: 3\n" + runs, encoding="utf-8")
        code, out, err = run(capsys, "jchar", str(design), "--groups", "3")
        assert (code, out, err) == (0, "0 3e+305\n", "")

    def test_the_margin_route_reads_a_run_total_past_the_float_range(self, capsys, tmp_path):
        design = tmp_path / "big.txt"
        design.write_text(huge_pair_design((2, 2), 15 * 10**307), encoding="utf-8")
        code, out, err = run(capsys, "gwlp", str(design))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "A = (1, 0, 1)"

    def test_json_is_byte_identical_across_runs(self, capsys):
        results = set()
        for _ in range(2):
            _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
            results.add(out)
        for _ in range(2):
            _, out, _ = run(capsys, "invariance", PAPER, "--json")
            results.add(out)
        assert len(results) == 2  # one string per command


def huge_pair_design(sizes, count) -> str:
    """A design file of two runs, all zeros and all ones, each counted ``count`` times."""
    runs = "".join(" ".join([str(level)] * len(sizes)) + f" x{count}\n" for level in (0, 1))
    return "levels: " + " ".join(map(str, sizes)) + "\n" + runs


class TestGoldenOutput:
    @pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
    def test_stdout_is_byte_identical(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.chdir(FIXTURES.parent)
        spectrum = tmp_path / "spectrum.json"
        run(capsys, "jchar", "fixtures/paper_oa.txt", "--groups", "4,2x2,4", "--json",
            "--output", str(spectrum))
        argv = [str(spectrum) if arg == "{spectrum}" else arg for arg in case["argv"]]
        code, out, _ = run(capsys, *argv)
        assert code == case["code"]
        assert out == case["stdout"]


class TestParserReuse:
    """main() parses with one parser per process; no call may leave state on it."""

    def test_golden_forward_then_reverse_with_errors_between(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(FIXTURES.parent)
        spectrum = tmp_path / "spectrum.json"
        run(capsys, "jchar", "fixtures/paper_oa.txt", "--groups", "4,2x2,4", "--json",
            "--output", str(spectrum))

        def outcome(argv):
            try:
                return run(capsys, *argv)
            except SystemExit as exc:  # argparse's usage errors exit from parse_args
                captured = capsys.readouterr()
                return exc.code, captured.out, captured.err

        extras = [  # argv and exit code; an appended --groups must not reach the next call
            (["frobnicate"], 1),
            (["gwlp", "fixtures/missing.txt"], 2),
            (["invariance", "fixtures/paper_oa.txt", "--groups", "4,4,4", "--tol", "1e-3"], 0),
            (["gwlp", "fixtures/paper_oa.txt", "--tol", "-1"], 1),
        ]
        steps = []
        for i, case in enumerate(GOLDEN):
            argv = [str(spectrum) if arg == "{spectrum}" else arg for arg in case["argv"]]
            steps += [(argv, case["code"], case["stdout"]), (*extras[i % len(extras)], None)]
        seen = {}
        for argv, code, stdout in steps + steps[::-1]:
            result = outcome(argv)
            assert result[0] == code, argv
            if stdout is not None:
                assert result[1] == stdout, argv
            assert seen.setdefault(tuple(argv), result) == result, argv

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_builds_one_parser_for_many_calls(self, capsys, monkeypatch):
        builds, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            for argv in (["enumerate-groups", "8"], ["gwlp", PAPER], ["gwlp", "/nonexistent"]):
                run(capsys, *argv)
            with pytest.raises(SystemExit):
                main(["frobnicate"])
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_importing_the_cli_builds_no_parser(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import wordlength.cli as c; print(c._parser.cache_info().currsize)"],
            capture_output=True, text=True, check=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")},
        )
        assert result.stdout == "0\n"


class TestRendering:
    def test_float_formatting(self):
        from wordlength.render import fmt_float

        assert fmt_float(3.0) == "3"
        assert fmt_float(-0.0) == "0"
        assert fmt_float(0.25) == "0.25"
        assert fmt_float(1e-15) == "1e-15"
        assert fmt_float(2.9999999999999996) == "3"

    def test_integral_floats_below_2_53_print_whole(self):
        from wordlength.render import fmt_float

        assert fmt_float(6351008287050.0) == "6351008287050"
        assert fmt_float(1e12) == "1000000000000"
        assert fmt_float(float(2**53 - 1)) == "9007199254740991"
        assert fmt_float(-float(2**53 - 1)) == "-9007199254740991"
        assert fmt_float(999999999999.0) == "999999999999"  # as "%.12g" prints it
        # Not integral, or past the integers float64 tells apart: 12 significant digits.
        assert fmt_float(1e12 + 0.5) == "1e+12"
        assert fmt_float(float(2**53)) == "9.00719925474e+15"
        assert fmt_float(1e300) == "1e+300"
        assert fmt_float(math.inf) == "inf"

    def test_complex_formatting(self):
        from wordlength.render import fmt_complex

        assert fmt_complex(0) == "0"
        assert fmt_complex(16 + 0j) == "16"
        assert fmt_complex(-6 - 2j) == "-6-2i"
        assert fmt_complex(4j) == "4i"
        assert fmt_complex(-4j) == "-4i"
        assert fmt_complex(1j) == "i"
        assert fmt_complex(-1j) == "-i"
        assert fmt_complex(3 + 1j) == "3+i"
        assert fmt_complex(3 - 1j) == "3-i"
        assert fmt_complex(complex(-0.0, -0.0)) == "0"

    def test_dumps_rejects_unknown_types(self):
        from wordlength.render import dumps

        for value in (object(), 1j):
            with pytest.raises(TypeError):
                dumps(value)

    def test_dumps_encodes_scalars_like_json_dumps(self):
        from wordlength.render import dumps

        scalars = [None, True, False, 0, -7, 2**70, "", 'q"b\\s', "tab\t\x01"]
        scalars.append("\u00e4\u2028\U0001f600")
        for value in scalars:
            assert dumps(value) == json.dumps(value)
            assert dumps({value: 1}) == "{" + json.dumps(str(value)) + ": 1}"
        assert json.loads(dumps(scalars)) == scalars

    @pytest.mark.parametrize(
        "levels, first",
        [
            ((("0", "a"), ("x", "y", "z")), ["0x", "0y"]),
            ((("lo", "hi"), ("0", "1")), ["lo,0", "lo,1"]),
        ],
    )
    def test_element_labels_are_element_label_in_yates_order(self, levels, first):
        from wordlength.render import element_label, element_labels

        components = itertools.product(*(range(len(a)) for a in levels))
        expected = [element_label(levels, comps) for comps in components]
        assert list(element_labels(levels)) == expected
        assert expected[:2] == first

    def test_one_element_spectrum(self):
        from wordlength.render import _write_spectrum, dumps

        values = np.array([complex(-0.0, 2.5)])
        spectrum = functools.partial(_write_spectrum, (("a",),), values)
        assert dumps(spectrum) == '[{"g": "a", "re": 0, "im": 2.5}]'

    def test_all_distinct_spectrum(self):
        from wordlength.render import _write_spectrum, dumps

        levels = (("0", "a", "b"), ("x", "y"))
        values = np.arange(6) / 3 + 1j * (np.arange(6) + 0.5) * 1e-20  # no value repeats
        text = dumps(functools.partial(_write_spectrum, levels, values))
        assert text == dumps(spectrum_entries(levels, values))
        first_two = '[{"g": "0x", "re": 0, "im": 5e-21}, {"g": "0y", "re": 0.333333333333, '
        assert text.startswith(first_two)

    @pytest.mark.parametrize(
        "sizes",
        [(7,), (3, 1), (2, 1, 4), (2, 5000), (45, 91), (16, 256), (17, 241), (9, 10, 10, 10)],
        ids=["k=1", "1-level-last", "1-level-middle", "last-past-block", "block-1", "block",
             "block+1", "three-blocks"],
    )
    def test_spectrum_renders_as_its_list_of_entries(self, sizes):
        # The writer's blocks hold 4096 entries: 4095, 4096 and 4097 entries
        # end at, or one either side of, a block's end; a last factor of 5000
        # levels runs one head across every block.
        from wordlength.render import _write_spectrum, dumps

        levels = tuple(tuple(map(str, range(s))) for s in sizes)
        index = np.arange(math.prod(sizes))
        values = (index % 7 - 2j * (index % 3)) / np.where(index % 5, 1, 3)
        spectrum = functools.partial(_write_spectrum, levels, values)
        assert dumps(spectrum) == dumps(spectrum_entries(levels, values))

    def test_comma_joined_labels_escape_every_symbol(self):
        from wordlength.render import _write_spectrum, dumps

        levels = (('q"', "\\t\t"), ("\x01\u2028", "\U0001f600", "lo"))
        values = np.array([1, -0.0, 2, 1, 1j, 2 - 1j])
        text = dumps(functools.partial(_write_spectrum, levels, values))
        assert text == dumps(spectrum_entries(levels, values))
        assert text.isascii()
        assert '"g": "q\\",\\ud83d\\ude00"' in text
        assert [e["g"] for e in json.loads(text)][:2] == ['q",\x01\u2028', 'q",\U0001f600']

    @pytest.mark.parametrize(
        "sizes, groups, seed, digest",
        [  # integer parts in 4 blocks of the writer; irrational parts in 2, the last partial
            ((4,) * 7, "4,2x2,4,2x2,4,2x2,4", 47,
             "6bc0f7e291a8b998fe0e8de1dca610a29018a8a050354521badab8f9ccf0f7fb"),
            ((3,) * 8, ",".join(["3"] * 8), 38,
             "bc4266294dd8db9423fcb4f1bc2529c8b3e2c3573f6ea463b6828373ae585fe7"),
        ],
    )
    def test_reports_of_several_blocks_are_pinned(
        self, capsys, tmp_path, monkeypatch, sizes, groups, seed, digest
    ):
        # The sha256 of each report as an earlier build wrote it.
        monkeypatch.chdir(tmp_path)
        write_sampled_design(tmp_path / "design.txt", sizes, seed)
        argv = ["jchar", "design.txt", "--groups", groups, "--json", "--output", "report.json"]
        assert main(argv) == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest
        assert main(["reconstruct", "report.json", "--output", "back.txt"]) == 0
        capsys.readouterr()
        back = parse_design((tmp_path / "back.txt").read_text(encoding="utf-8"))
        assert back == parse_design((tmp_path / "design.txt").read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "group, digest",
        [
            ("4", "eb9ef4fe8da603adf267ecc9dd8667934f5e676c152fe3b2b8be0db54ea8a6ec"),
            ("2x2", "8e3772a2738f1e87c7593449be74c899f2f01929a6483ae8937f05c2f6d242a8"),
        ],
    )
    def test_octacode_reports_are_pinned(self, capsys, tmp_path, monkeypatch, group, digest):
        # The sha256 of the octacode's report under one group on every factor,
        # as an earlier build wrote it: each is 2.4 MB, too large for the
        # golden file.  Both reconstruct to the fixture's 256 runs.
        monkeypatch.chdir(FIXTURES.parent)
        report, back = tmp_path / "report.json", tmp_path / "back.txt"
        groups = ",".join([group] * 8)
        argv = ["jchar", "fixtures/octacode.txt", "--groups", groups, "--json"]
        assert main([*argv, "--output", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
        assert main(["reconstruct", str(report), "--output", str(back)]) == 0
        capsys.readouterr()
        design = parse_design(back.read_text(encoding="utf-8"))
        assert design == parse_design((FIXTURES / "octacode.txt").read_text(encoding="utf-8"))
        assert design.n_runs == len(design.counts) == 256

    @pytest.mark.parametrize(
        "sizes, groups, seed, symbols, digest",
        [  # the reports of TestReconstructAllocation: integer parts, irrational parts, "é"
            ((4,) * 8, "4,2x2,4,2x2,4,4,2x2,4", 48, None,
             "12168df10217bc2f18eccd8ef18f9c2fa483a456f79ae0afafced2b7346d5392"),
            ((3,) * 10, ",".join(["3"] * 10), 310, None,
             "762c304b82877c4c288e465a7873620feda86fd82ebd6c1db1d1c4d02f84f406"),
            ((4,) * 8, "4,2x2,4,2x2,4,4,2x2,4", 48, ["0", "1", "2", "é"],
             "4bb2a0f8c842d0954bfa2b2ae25510e71f8f3416985a18fb2560a8aeef1a1bea"),
        ],
    )
    def test_reconstruct_reports_are_pinned(
        self, capsys, tmp_path, monkeypatch, sizes, groups, seed, symbols, digest
    ):
        # The sha256 of each `reconstruct --json` report as an earlier build wrote it.
        monkeypatch.chdir(tmp_path)
        write_sampled_design(tmp_path / "design.txt", sizes, seed, symbols)
        argv = ["jchar", "design.txt", "--groups", groups, "--json", "--output", "report.json"]
        assert main(argv) == 0
        assert main(["reconstruct", "report.json", "--json", "--output", "back.json"]) == 0
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "back.json").read_bytes()).hexdigest() == digest


@pytest.mark.memory_bound
class TestMarginRouteAllocation:
    def test_never_densifies_at_twelve_to_the_sixth(self, capsys, tmp_path):
        # s = 12^6 ~ 3e6 cells; the dense complex vector alone would be ~48 MB.
        rng = np.random.default_rng(51)
        lines = ["levels: 12 12 12 12 12 12"]
        for _ in range(200):
            lines.append(" ".join(str(int(rng.integers(0, 12))) for _ in range(6)))
        design_file = tmp_path / "big.txt"
        design_file.write_text("\n".join(lines), encoding="utf-8")
        out_file = tmp_path / "report.txt"
        argv = ["gwlp", str(design_file), "--algorithm", "margin", "--output", str(out_file)]

        main(argv)  # builds the process's parser outside the trace
        code, peak = traced(lambda: main(argv))
        capsys.readouterr()
        assert code == 0
        assert "A = (1, " in out_file.read_text()
        assert peak < 8 * 1024 * 1024, f"margin route allocated {peak} bytes"


@pytest.mark.memory_bound
class TestReconstructAllocation:
    @staticmethod
    def reconstruct_peak(tmp_path, sizes, groups, seed, symbols=None, edit=None):
        """The traced peak of `reconstruct` on the `jchar --json` report of 256
        distinct runs drawn from a full factorial, its bytes passed through
        ``edit`` if given, checking the runs it gives back."""
        design_file = tmp_path / "design.txt"
        write_sampled_design(design_file, sizes, seed, symbols)
        report = tmp_path / "report.json"
        out_file = tmp_path / "reconstructed.txt"
        argv = ["jchar", str(design_file), "--groups", groups, "--json"]
        assert main([*argv, "--output", str(report)]) == 0
        if edit is not None:
            report.write_bytes(edit(report.read_bytes()))

        code, peak = traced(lambda: main(["reconstruct", str(report), "--output", str(out_file)]))
        assert code == 0
        assert parse_design(out_file.read_text()) == parse_design(design_file.read_text())
        return peak

    def test_holds_no_dict_per_entry_of_a_four_to_the_eighth_report(self, capsys, tmp_path):
        # 65,536 entries with integer parts, 2.4 MiB of report, which
        # _layout_values reads in slices of its bytes.  The peak is the
        # bytes, the values (1 MiB) in slices and then concatenated (1 MiB),
        # and one slice's arrays; reconstruct's own 3 MiB comes after the
        # bytes are freed.  Read as one dict and one label per entry, the
        # values alone would take some 17 MiB; the hooked scanner peaked at
        # 10.1 MiB, and the decoded text read in slices at 4.85 MiB.
        peak = self.reconstruct_peak(tmp_path, (4,) * 8, "4,2x2,4,2x2,4,4,2x2,4", 48)
        capsys.readouterr()
        # 4,822,169 bytes (4.60 MiB) measured, with 64 KiB to spare.
        assert peak <= 4_822_169 + PEAK_MARGIN, f"reconstruct allocated {peak} bytes"

    @pytest.mark.parametrize(
        "edit, measured",
        [
            # One copy of the bytes, with \r\n replaced, beside the file's bytes.
            (lambda data: data.replace(b"\n", b"\r\n"), 5_080_819),
            # The bytes, their text at two bytes a character while the mark
            # is in it, and that text without the mark: about four copies.
            (lambda data: codecs.BOM_UTF8 + data.replace(b"\n", b"\r\n"), 10_161_140),
        ],
        ids=["crlf", "bom-crlf"],
    )
    def test_reads_a_four_to_the_eighth_report_with_crlf_or_a_mark_in_the_layout(
        self, capsys, tmp_path, edit, measured
    ):
        # A report saved with \r\n line ends or a byte-order mark still goes
        # to _layout_values; read by json.loads whole, as one dict and one
        # label per entry, it peaked at 19.1 MiB.
        peak = self.reconstruct_peak(tmp_path, (4,) * 8, "4,2x2,4,2x2,4,4,2x2,4", 48, edit=edit)
        capsys.readouterr()
        # Measured as given, with 64 KiB to spare.
        assert peak <= measured + PEAK_MARGIN, f"reconstruct allocated {peak} bytes"

    def test_holds_no_dict_per_entry_of_a_three_to_the_tenth_report(self, capsys, tmp_path):
        # 59,049 entries with irrational parts, 3 MiB of report, which
        # _layout_values reads in slices, each slice's parts as one JSON list
        # of numbers.  The hooked scanner that read it before peaked at 11.2 MiB.
        peak = self.reconstruct_peak(tmp_path, (3,) * 10, ",".join(["3"] * 10), 310)
        capsys.readouterr()
        # 6,255,965 bytes (5.97 MiB) measured, with 64 KiB to spare.
        assert peak <= 6_255_965 + PEAK_MARGIN, f"reconstruct allocated {peak} bytes"

    def test_reads_unicode_escaped_labels_in_the_layout(self, capsys, tmp_path, monkeypatch):
        # jchar writes the non-ASCII symbol as a 6-byte \uXXXX escape in each
        # label it is in: 3.0 MiB of report.  Read as one dict per entry, that
        # report peaked at 23.1 MiB.
        reads = []
        layout_entries = render._layout_entries

        def spy(raw, last):
            reads.append(layout_entries(raw, last))
            return reads[-1]

        monkeypatch.setattr(render, "_layout_entries", spy)
        sizes, groups = (4,) * 8, "4,2x2,4,2x2,4,4,2x2,4"
        peak = self.reconstruct_peak(tmp_path, sizes, groups, 48, ["0", "1", "2", "\u00e9"])
        capsys.readouterr()
        assert len(reads) > 1 and all(read is not None for read in reads)  # every slice taken
        # 5,347,293 bytes (5.10 MiB) measured, with 64 KiB to spare.
        assert peak <= 5_347_293 + PEAK_MARGIN, f"reconstruct allocated {peak} bytes"

    def test_reads_integer_parts_without_the_number_reader(self, capsys, tmp_path, monkeypatch):
        # The reports the spectrum round trip benchmark reads: integer parts
        # under mixed 4 and 2x2, which _integers reads and _numbers never sees.
        def refuse(*args):
            raise AssertionError("an integer report reached _numbers")

        monkeypatch.setattr(render, "_numbers", refuse)
        self.reconstruct_peak(tmp_path, (4,) * 6, "4,2x2,4,2x2,2x2,4", 6)
        capsys.readouterr()


@pytest.mark.memory_bound
def test_jchar_writes_a_four_to_the_eighth_report_in_blocks(capsys, tmp_path):
    # The report reconstruct_peak reads above: 65,536 entries, 2.5 MB of
    # text, written as its blocks of 4096 entries, which are never joined.
    # The peak is those blocks and the spectrum's formatted parts; joined
    # into one string and copied with a newline, the report peaked at
    # 5.88 MiB.
    design_file = tmp_path / "design.txt"
    write_sampled_design(design_file, (4,) * 8, 48)
    argv = ["jchar", str(design_file), "--groups", "4,2x2,4,2x2,4,4,2x2,4", "--json",
            "--output", str(tmp_path / "report.json")]
    main(argv)  # builds the process's parser outside the trace
    code, peak = traced(lambda: main(argv))
    capsys.readouterr()
    assert code == 0
    # 4,834,649 bytes (4.61 MiB) measured, with 64 KiB to spare.
    assert peak <= 4_834_649 + PEAK_MARGIN, f"jchar --json allocated {peak} bytes"


def test_no_private_json_names_in_the_package():
    # json.decoder and json.scanner are undocumented internals of the stdlib,
    # as is a decoder's scan_once; the package reads JSON with json.loads.
    found = []
    for path in sorted((FIXTURES.parent / "src" / "wordlength").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):  # json.decoder.WHITESPACE, d.scan_once
                names = [ast.unparse(node)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith(("json.decoder", "json.scanner")) or "scan_once" in name]
    assert found == []


def test_the_package_imports_the_standard_library_numpy_and_itself():
    # src/ depends on numpy alone, and cli.py takes no private name from the
    # package: a rule the CLI needs has a public home beside its other users.
    allowed = set(sys.stdlib_module_names) | {"numpy", "wordlength"}
    foreign, private = [], []
    for path in sorted((FIXTURES.parent / "src" / "wordlength").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["wordlength" if node.level else node.module]
                if path.name == "cli.py" and modules[0].partition(".")[0] == "wordlength":
                    private += [f"cli.py:{node.lineno} {alias.name}" for alias in node.names
                                if alias.name.startswith("_")]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {module}" for module in modules
                        if module.partition(".")[0] not in allowed]
    assert foreign == []
    assert private == []


def strings_outside_render():
    """(where, text) of every str or bytes constant in the package but render.py."""
    for path in sorted((FIXTURES.parent / "src" / "wordlength").glob("*.py")):
        if path.name == "render.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
                text = node.value if isinstance(node.value, str) else node.value.decode("latin-1")
                yield f"{path.name}:{node.lineno}", text


def test_only_render_spells_the_jchar_report_format():
    # render writes the jchar --json report and reads it back; a string of
    # its bytes anywhere else would be a second statement of the format.
    found = [f"{where} {text!r}" for where, text in strings_outside_render()
             if '{"g": ' in text or '"values": ' in text]
    assert found == []


def test_only_render_spells_the_reconstruct_report_keys():
    # render writes the reconstruct --json report: its keys as payload keys
    # or as JSON text anywhere else would be a second statement of the format.
    keys = ("counts", "multiplicity")
    found = [f"{where} {text!r}" for where, text in strings_outside_render()
             if text in keys or any(f'"{key}"' in text for key in keys)]
    assert found == []


def test_no_numpy_mixed_radix_calls_in_the_package():
    # np.ravel_multi_index and np.unravel_index take at most 64 axes (32 on
    # numpy 1.x) and intp indices; the package encodes and decodes Yates
    # indices with groups.yates_strides, which has neither limit.
    banned = {"ravel_multi_index", "unravel_index"}
    found = []
    for path in sorted((FIXTURES.parent / "src" / "wordlength").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in banned]
    assert found == []


def test_internal_tol_is_only_a_verdict_default_and_the_residue_floor():
    # INTERNAL_TOL is the default tolerance of the pattern verdicts.  Spectra
    # are compared against spectra._residue_bound, which grows with N, so a
    # fixed threshold on them would report float residues as values at large
    # N.  A read may be the default of a ``tol`` parameter, the value passed
    # for one (the CLI's --tol default), or inside _residue_bound.
    params = {"tol", "tol_default"}
    found, kept = [], []
    for path in sorted((FIXTURES.parent / "src" / "wordlength").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        names = {f.name: [a.arg for a in f.args.posonlyargs + f.args.args] for f in functions}
        allowed = set()
        for node in functions:
            args = node.args
            defaults = [*zip((args.posonlyargs + args.args)[::-1], args.defaults[::-1]),
                        *zip(args.kwonlyargs, args.kw_defaults)]
            allowed |= {id(value) for arg, value in defaults if arg.arg in params}
            if node.name == "_residue_bound":
                allowed |= set(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                bound = zip(names.get(node.func.id, []), node.args)
                allowed |= {id(value) for name, value in bound if name in params}
                allowed |= {id(k.value) for k in node.keywords if k.arg in params}
        for node in ast.walk(tree):
            read = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id
            if (read or getattr(node, "attr", None)) == "INTERNAL_TOL":
                (kept if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert found == []
    assert {where.split(":")[0] for where in kept} == {"cli.py", "invariance.py", "spectra.py"}


# Multipliers near 10^308, each below float64's maximum (about 1.8e308), so
# that N and 2N fall on either side of it: integers up to 10^450 seldom do.
FLOAT_EDGE_COUNTS = st.integers(10**307, 17 * 10**307)


@st.composite
def design_texts(draw) -> tuple[str, str, str]:
    """Two design files over one ``levels:`` header (k <= 4, sizes 1-9, at most
    12 run lines, multipliers up to 10^450, or all near 10^308 in about half
    the draws) and a structure literal per factor."""
    shape = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    edge = draw(st.booleans())
    mults = FLOAT_EDGE_COUNTS if edge else st.none() | st.integers(1, 10**450)
    run = st.tuples(*(st.integers(0, s - 1) for s in shape), mults)
    header = "levels: " + " ".join(map(str, shape))
    texts = []
    for _ in range(2):
        lines = [header]
        for *cell, mult in draw(st.lists(run, min_size=2 * edge, max_size=12)):
            lines.append(" ".join(map(str, cell)) + ("" if mult is None else f" x{mult}"))
        texts.append("\n".join(lines) + "\n")
    groups = ",".join(draw(st.sampled_from(enumerate_structures(s))).literal() for s in shape)
    return *texts, groups


def refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=50, deadline=None)
@given(design_texts())
def test_every_command_exits_with_a_documented_code(case):
    # No input a command reads may end in a traceback: each call returns 0-3,
    # and a jchar --json report that exits 0 loads as strict JSON.
    first_text, second_text, groups = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second, report = (os.path.join(tmp, name) for name in ("a", "b", "r.json"))
        for path, text in ((first, first_text), (second, second_text)):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        calls = [
            ["gwlp", first],
            ["gwlp", first, "--groups", groups],
            ["gwlp", first, "--groups", groups, "--algorithm", "dense"],
            ["jchar", first, "--groups", groups],
            ["jchar", first, "--groups", groups, "--json", "--output", report],
            ["reconstruct", report],
            ["reconstruct", report, "--json"],
            ["invariance", first],
            ["margins", first],
            ["compare", first, second],
            ["compare", first, second, "--groups", groups],
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in calls:
                code = main(argv)
                assert code in (0, 1, 2, 3), argv
                if code == 0 and "--output" in argv:  # a report is JSON: no NaN or Infinity
                    with open(report, encoding="utf-8") as handle:
                        json.loads(handle.read(), parse_constant=refuse_constant)


# Pieces of a file: ASCII, line ends, a mark, characters of two to four
# bytes, and bytes that are not UTF-8 alone or cut a character short.
FILE_PIECES = [b"a", b" ", b"\r", b"\n", b"\r\n", codecs.BOM_UTF8, "\u00e4".encode(),
               "\u20ac".encode(), "\U0001f600".encode(), b"\xff", b"\xc3", b"\x80", b"\xe2\x82"]


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(st.sampled_from(FILE_PIECES), max_size=12))
def test_read_gives_the_text_with_one_mark_dropped_and_line_ends_as_newlines(marked, pieces):
    data = (codecs.BOM_UTF8 if marked else b"") + b"".join(pieces)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            with pytest.raises(DesignParseError) as refusal:
                cli._read(path)
            assert str(refusal.value) == (
                f"cannot read {path}: byte {exc.start} is not UTF-8 ({exc.reason})"
            )
        else:
            text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
            assert cli._read(path) == text.encode("utf-8")
