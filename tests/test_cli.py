"""CLI behavior: subcommands, exit codes, formats, determinism, allocation."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import FIXTURES
from wordlength.cli import main

PAPER = str(FIXTURES / "paper_oa.txt")
WIDE = str(FIXTURES / "wide_binary.txt")

# stdout and exit code of every command, text and --json, on the paper fixture
# as recorded from an earlier build; "{spectrum}" stands for a `jchar --json`
# report under 4,2x2,4.  The mixed_symbols.txt entries pin spectrum rendering
# (irrational values, 1e-16 residues, comma-joined and \u-escaped labels) and
# the margins command; the wide_binary.txt entries pin margins over more than
# 32 factors, which are counted as distinct rows, and over the empty subset;
# the tally_rows.txt entries pin the parse of repeated, shuffled and
# multiplied run lines under inferred alphabets.
GOLDEN = json.loads((FIXTURES / "cli_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        from wordlength import parse_design

        reconstructed = parse_design(text)
        original = parse_design((FIXTURES / "paper_oa.txt").read_text())
        assert reconstructed == original

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
            '{"values": 3}',
            "not json",
            edited(lambda doc: doc["values"].pop()),
            edited(lambda doc: doc["groups"].__setitem__(1, "zz")),
            edited(lambda doc: doc["design"]["symbols"][2].pop()),
            edited(lambda doc: doc["values"][5].__setitem__("re", float("nan"))),
            edited(lambda doc: doc["values"][0].__setitem__("im", float("inf"))),
            edited(lambda doc: doc.__setitem__("n_runs", 99)),
            edited(lambda doc: doc.__setitem__("n_runs", 16.5)),
        ):
            bad.write_text(text, encoding="utf-8")
            code, _, err = run(capsys, "reconstruct", str(bad))
            assert code == 2, text
            assert err.startswith("wordlength: ")
        # JSON booleans are not numbers, although Python's bool is an int.
        for edit in (
            lambda doc: doc["values"][3].__setitem__("im", False),
            lambda doc: doc["values"][0].__setitem__("re", True),
            lambda doc: doc.__setitem__("n_runs", True),
        ):
            bad.write_text(edited(edit), encoding="utf-8")
            code, _, err = run(capsys, "reconstruct", str(bad))
            assert code == 2
            assert err.startswith(f"wordlength: {bad} is not a jchar report: ")
        # A float that is an integer is still a run count.
        bad.write_text(edited(lambda doc: doc.__setitem__("n_runs", 16.0)), encoding="utf-8")
        assert run(capsys, "reconstruct", str(bad))[0] == 0

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

    def test_zero_tol_means_exact_comparison(self, capsys, tmp_path):
        _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(out, encoding="utf-8")
        for argv in (
            ["compare", PAPER, PAPER],
            ["invariance", PAPER],
            ["reconstruct", str(spectrum)],
        ):
            code, _, _ = run(capsys, *argv, "--tol", "0")
            assert code == 0, argv
        code, _, err = run(capsys, "gwlp", PAPER, "--tol", "0")  # resolution needs tol > 0
        assert code == 1
        assert "tolerance must be positive" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "gwlp", "/nonexistent/design.txt")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n0\n", encoding="utf-8")
        code, _, err = run(capsys, "gwlp", str(bad))
        assert code == 2
        assert "line 2" in err

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

    @pytest.mark.parametrize("argv", [["gwlp"], ["invariance"], ["compare", WIDE]])
    def test_margin_route_refuses_forty_factors(self, argv):
        # A fresh process with a timeout, so that an uncapped 2^40-subset loop
        # fails the test instead of hanging the suite.
        result = subprocess.run(
            [sys.executable, "-m", "wordlength.cli", *argv, WIDE],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")},
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "wordlength: margin route over k = 40 factors needs 2^40 subsets, "
            "above the cap 1048576\n"
        )

    def test_json_is_byte_identical_across_runs(self, capsys):
        results = set()
        for _ in range(2):
            _, out, _ = run(capsys, "jchar", PAPER, "--groups", "4,4,4", "--json")
            results.add(out)
        for _ in range(2):
            _, out, _ = run(capsys, "invariance", PAPER, "--json")
            results.add(out)
        assert len(results) == 2  # one string per command


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


class TestRendering:
    def test_float_formatting(self):
        from wordlength.render import fmt_float

        assert fmt_float(3.0) == "3"
        assert fmt_float(-0.0) == "0"
        assert fmt_float(0.25) == "0.25"
        assert fmt_float(1e-15) == "1e-15"
        assert fmt_float(2.9999999999999996) == "3"

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

    @staticmethod
    def entries_text(levels, values):
        # json.dumps escapes each whole label; the writer escapes each symbol once.
        from wordlength.render import element_labels, fmt_float

        entries = [
            f'{{"g": {json.dumps(label)}, "re": {fmt_float(z.real)}, "im": {fmt_float(z.imag)}}}'
            for label, z in zip(element_labels(levels), values.tolist())
        ]
        return "[" + ", ".join(entries) + "]"

    def test_one_element_spectrum(self):
        from wordlength.render import Spectrum, dumps

        values = np.array([complex(-0.0, 2.5)])
        assert dumps(Spectrum((("a",),), values)) == '[{"g": "a", "re": 0, "im": 2.5}]'

    def test_all_distinct_spectrum(self):
        from wordlength.render import Spectrum, dumps

        levels = (("0", "a", "b"), ("x", "y"))
        values = np.arange(6) / 3 + 1j * (np.arange(6) + 0.5) * 1e-20  # no value repeats
        text = dumps(Spectrum(levels, values))
        assert text == self.entries_text(levels, values)
        first_two = '[{"g": "0x", "re": 0, "im": 5e-21}, {"g": "0y", "re": 0.333333333333, '
        assert text.startswith(first_two)

    def test_spectrum_of_several_blocks(self):
        from wordlength.render import Spectrum, dumps

        # 9000 entries span three blocks of the writer, the last one partial.
        levels = tuple(tuple("0123456789"[:s]) for s in (9, 10, 10, 10))
        values = np.arange(9000) % 7 - 2j * (np.arange(9000) % 3)
        assert dumps(Spectrum(levels, values)) == self.entries_text(levels, values)

    def test_comma_joined_labels_escape_every_symbol(self):
        from wordlength.render import Spectrum, dumps

        levels = (('q"', "\\t\t"), ("\x01\u2028", "\U0001f600", "lo"))
        values = np.array([1, -0.0, 2, 1, 1j, 2 - 1j])
        text = dumps(Spectrum(levels, values))
        assert text == self.entries_text(levels, values)
        assert text.isascii()
        assert '"g": "q\\",\\ud83d\\ude00"' in text
        assert [e["g"] for e in json.loads(text)][:2] == ['q",\x01\u2028', 'q",\U0001f600']


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

        tracemalloc.start()
        code = main(["gwlp", str(design_file), "--algorithm", "margin",
                     "--output", str(out_file)])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert "A = (1, " in out_file.read_text()
        assert peak < 8 * 1024 * 1024, f"margin route allocated {peak} bytes"
