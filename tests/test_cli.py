import copy
import dataclasses
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptometry as am
from adaptometry import cli as cli_module
from adaptometry import writers
from adaptometry.cli import _period_record, _report_json, main

SYNTH_CONFIG = """\
units = 40
indicators = 5
periods = 2020-01:baseline, 2020-06:stressed
baseline_means = 50
noise_sd = 5.0
loading_baseline = 0.0
loading_stressed = 15.0
variance_multiplier = 2.0
seed = 7
"""

# a 200 x 50 x 4 panel, whose file spans many of parse_panel's chunks
CHUNKS_CONFIG = """\
units = 200
indicators = 50
periods = 2020-01:baseline, 2020-02:stressed, 2020-03:baseline, 2020-04:stressed
baseline_means = 50
noise_sd = 4
loading_baseline = 0
loading_stressed = 15
variance_multiplier = 2
seed = 1
"""

DATA = pathlib.Path(__file__).parent / "data"

# the reference run: the published panel without indicators 17 and 19, and
# the political grouping; tests/data/reference_run holds the matrix and
# distance CSVs it writes
REFERENCE_ARGS = ["--input", str(DATA / "ukraine_fears_panel.csv"), "--exclude", "17,19",
                  "--grouped", str(DATA / "political_groups.csv")]

# Runs ``python <its arguments>`` and prints that process's peak RSS in MiB,
# ru_maxrss from os.wait4. A spawned process's ru_maxrss starts from its
# parent's, so the parent is this small interpreter, not the test process.
PEAK_MIB = (
    "import os, sys\n"
    "argv = [sys.executable, *sys.argv[1:]]\n"
    "_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)\n"
    "sys.exit(f'wait status {status}') if status else print(usage.ru_maxrss / 1024)\n"
)


def _mask_timestamp(report: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', report)


def _assert_reference_csvs(out: pathlib.Path) -> None:
    """The matrix and distance CSVs under ``out`` are the golden ones, byte for byte."""
    for folder in ("matrices", "distances"):
        golden = DATA / "reference_run" / folder
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in (out / folder).iterdir()) == names
        for name in names:
            assert (out / folder / name).read_bytes() == (golden / name).read_bytes(), name


def _assert_same_outputs(a: pathlib.Path, b: pathlib.Path) -> None:
    """The same files under ``a`` and ``b``, byte for byte, ``generated_at`` aside."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for name in names:
        got, expected = (b / name).read_text(), (a / name).read_text()
        if name.name == "report.json":
            got, expected = _mask_timestamp(got), _mask_timestamp(expected)
        assert got == expected, name


@pytest.fixture
def panel_csv(tmp_path, panel_text):
    path = tmp_path / "panel.csv"
    path.write_text(panel_text)
    return path


@pytest.fixture
def grouped_csv(tmp_path):
    import pathlib

    src = pathlib.Path(__file__).parent / "data" / "political_groups.csv"
    path = tmp_path / "grouped.csv"
    path.write_text(src.read_text())
    return path


class TestAnalyze:
    def test_default_run(self, panel_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        weights = [p["weight"] for p in doc["periods"]]
        for w, expected in zip(weights, (15.72, 23.20, 22.91, 25.78)):
            assert w == pytest.approx(expected, abs=0.30)
        assert doc["metadata"]["threshold"] == 0.7
        assert doc["metadata"]["excluded_indicator_ids"] == []
        assert doc["metadata"]["input_digest"].startswith("sha256:")
        assert len(list((out / "matrices").glob("*.csv"))) == 4
        assert len(list((out / "distances").glob("*.csv"))) == 4

    def test_report_json_roundtrips(self, panel_csv, tmp_path):
        out = tmp_path / "out"
        main(["analyze", "--input", str(panel_csv), "--out", str(out)])
        text = (out / "report.json").read_text()
        doc = json.loads(text)
        assert json.loads(json.dumps(doc)) == doc
        record = doc["periods"][0]
        assert set(record) == {
            "period", "weight", "edge_count", "edges", "degrees",
            "d_min", "d_max", "volume", "log_volume",
        }
        assert record["edge_count"] == len(record["edges"])

    def test_reference_report_matches_golden(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", *REFERENCE_ARGS, "--out", str(out)]) == 0
        got = _mask_timestamp((out / "report.json").read_text())
        assert got == _mask_timestamp((DATA / "expected_report.json").read_text())

    def test_reference_csvs_match_golden(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", *REFERENCE_ARGS, "--out", str(out)]) == 0
        _assert_reference_csvs(out)

    def test_exclude_flag(self, panel_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(panel_csv), "--exclude", "17,19", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["metadata"]["excluded_indicator_ids"] == [17, 19]
        weights = [p["weight"] for p in doc["periods"]]
        expected = (11.457494, 18.850171, 17.689328, 18.959980)
        for w, e in zip(weights, expected):
            assert w == pytest.approx(e, abs=1e-4)

    def test_missing_input_exits_2_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: cannot read {tmp_path / 'nope.csv'}: No such file or directory\n"
        )

    def test_invalid_panel_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("period,unit,indicator_id,indicator_name,value\nx,y,1,a,777\n")
        code = main(["analyze", "--input", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_single_unit_exits_1_without_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "one.csv"
        bad.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            "2020,A,1,a,10\n2020,A,2,b,20\n2021,A,1,a,30\n2021,A,2,b,40\n"
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: units: need at least 2 units, got 1\n"
        assert not out.exists()

    def test_period_label_cannot_escape_out(self, tmp_path, capsys):
        bad = tmp_path / "escape.csv"
        bad.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"../../escape,{u},{i},x{i},{10 * i + u}\n"
                      for u in (1, 2, 3) for i in (1, 2))
        )
        out = tmp_path / "o" / "a" / "b"
        assert main(["analyze", "--input", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: period '../../escape': ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["escape.csv"]

    def test_period_label_too_long_for_a_file_name_exits_1(self, tmp_path, capsys):
        label = "p" * 300
        bad = tmp_path / "long.csv"
        bad.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"{label},{u},{i},x{i},{10 * i + u}\n" for u in (1, 2, 3) for i in (1, 2))
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: period '{label}': period labels name output files: at most 251 bytes "
            "of UTF-8, so that '<label>.csv' fits a 255-byte file name\n"
        )
        assert not out.exists()

    def test_period_label_an_svg_cannot_hold_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "control.csv"
        bad.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"{p},{u},{i},x{i},{10 * i + u}\n"
                      for p in ("a\x01", "b\x02") for u in (1, 2, 3) for i in (1, 2))
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(bad), "--plots", "--out", str(out)]) == 1
        rule = ("period labels are chart text: no character XML 1.0 cannot hold (U+0001-U+0008, "
                "U+000B, U+000C, U+000E-U+001F, U+FFFE, U+FFFF)")
        assert capsys.readouterr().err == (
            f"error: period 'a\\x01': {rule}\nerror: period 'b\\x02': {rule}\n"
        )
        assert not out.exists()

    def test_period_labels_equal_but_for_case_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "case.csv"
        bad.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"{p},{u},{i},x{i},{10 * i + u}\n"
                      for p in ("2020-A", "2020-a") for u in (1, 2, 3) for i in (1, 2))
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: period '2020-a': period labels '2020-A' and '2020-a' differ only in case, "
            "so their output files collide on case-insensitive file systems\n"
        )
        assert not out.exists()

    def test_unordered_periods_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "unordered.csv"
        bad.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"{p},{u},{i},x{i},{10 * i + u}\n"
                      for p in ("2021", "2020") for u in (1, 2, 3) for i in (1, 2))
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: period '2020': period labels not strictly increasing ('2021' then '2020')\n"
        )
        assert not out.exists()

    def test_empty_period_out_of_order_names_it_quoted(self, tmp_path, capsys):
        # both errors locate the empty label as '': the file-name rule, then the order
        bad = tmp_path / "empty.csv"
        bad.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"{p},{u},{i},x{i},{10 * i + u}\n"
                      for p in ("z", "") for u in (1, 2, 3) for i in (1, 2))
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: period '': period labels name output files: not empty, '.' or '..', "
            "no '/', '\\' or NUL\n"
            "error: period '': period labels not strictly increasing ('z' then '')\n"
        )
        assert not out.exists()

    def test_one_group_table_exits_1(self, panel_csv, tmp_path, capsys):
        grouped = tmp_path / "grouped.csv"
        grouped.write_text("indicator_id,group,value\n1,A,3\n2,A,4\n")
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(panel_csv), "--grouped", str(grouped),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: need at least 2 groups\n"
        assert not out.exists()

    def test_volume_just_below_double_range_is_a_number(self, tmp_path):
        # 100**154 = 1e308: its log, 709.196, is under ln(DBL_MAX) = 709.78
        path = tmp_path / "wide.csv"
        path.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"2020,{u},{i},x{i},{100 * (u == 'b')}\n"
                      for u in "ab" for i in range(1, 155))
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
        (record,) = json.loads((out / "report.json").read_text())["periods"]
        assert record["log_volume"] == pytest.approx(154 * math.log(100), rel=1e-12)
        assert record["volume"] == pytest.approx(1e308, rel=1e-12)

    def test_negative_topk_with_grouped_names_the_range(
        self, panel_csv, grouped_csv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(panel_csv), "--grouped", str(grouped_csv),
                     "--exclude", "17,19", "--flag-policy", "topk:-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: topk k=-1 outside [0, 19]\n"
        assert not out.exists()

    def test_bad_flag_policy_writes_nothing(self, panel_csv, grouped_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(panel_csv), "--grouped", str(grouped_csv),
             "--flag-policy", "bogus", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unknown flag policy 'bogus'\n"
        assert not out.exists()

    @pytest.mark.parametrize("policy,message", [
        ("bogus", "unknown flag policy 'bogus'"),
        ("topk:x", "bad topk policy 'topk:x'"),
        ("threshold:-1", "threshold t=-1.0 must be >= 0"),
        ("topk:-1", "topk k=-1 must be >= 0"),
    ])
    def test_bad_flag_policy_without_grouped_writes_nothing(
        self, panel_csv, tmp_path, capsys, policy, message
    ):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(panel_csv), "--flag-policy", policy,
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sparse_panel_exits_1(self, sparse_panel_text, tmp_path, capsys):
        path = tmp_path / "sparse.csv"
        path.write_text(sparse_panel_text)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: missing cell (period=p00000, unit=u0, indicator=1)\n"
        )
        assert not out.exists()

    def test_grouped_ids_not_in_panel_exit_1(self, panel_csv, tmp_path, capsys):
        grouped = tmp_path / "grouped.csv"
        grouped.write_text("indicator_id,group,value\n101,A,3\n101,B,4\n102,A,5\n102,B,6\n")
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(panel_csv), "--grouped", str(grouped), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: grouped table indicator ids not in panel: [101, 102]\n"
        )
        assert not out.exists()

    def test_bad_grouped_row_writes_nothing(self, panel_csv, tmp_path, capsys):
        grouped = tmp_path / "grouped.csv"
        grouped.write_text("indicator_id,group,value\n1,g1,abc\n")
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(panel_csv), "--grouped", str(grouped), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: bad row ['1', 'g1', 'abc']\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--input", "--grouped"])
    def test_non_utf8_file_exits_1(self, panel_csv, tmp_path, capsys, flag):
        data = b"period,unit,indicator_id,indicator_name,value\n2020,A\xff,1,a,10\n"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        out = tmp_path / "out"
        argv = {"--input": str(panel_csv), flag: str(bad), "--out": str(out)}
        assert main(["analyze", *(x for kv in argv.items() for x in kv)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {bad}: not UTF-8 text (byte 0xff at offset {data.index(0xff)})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_non_utf8_byte_offset_counts_from_the_file_start(self, tmp_path, capsys, bom):
        # past the first 8 KiB that a buffered text read decodes first
        data = bom + b"period,unit,indicator_id,indicator_name,value\n" + b"2020,A,1,a,10\n" * 1000
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data[:9000] + b"\xff" + data[9000:])
        assert main(["analyze", "--input", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {bad}: not UTF-8 text (byte 0xff at offset 9000)\n"
        )

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" export starts a file with U+FEFF, and writes an
        # empty row of a table as `,,`
        bom = tmp_path / "bom"
        bom.mkdir()
        for name, tail in (("ukraine_fears_panel.csv", b""),
                           ("political_groups.csv", b",,\n,,\n")):
            (bom / name).write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes() + tail)
        for src, out in ((DATA, tmp_path / "out"), (bom, tmp_path / "bom-out")):
            assert main(["analyze", "--input", str(src / "ukraine_fears_panel.csv"),
                         "--grouped", str(src / "political_groups.csv"), "--exclude", "17,19",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _assert_same_outputs(tmp_path / "out", tmp_path / "bom-out")

    def test_blank_grouped_rows_are_skipped(self, panel_csv, tmp_path):
        lines = (DATA / "political_groups.csv").read_text().splitlines(keepends=True)
        blank = tmp_path / "blank.csv"
        blank.write_text("".join(lines[:5] + [",,\n"] + lines[5:] + [",,\n", " , ,\n"]))
        for grouped, out in ((DATA / "political_groups.csv", "out"), (blank, "blank-out")):
            assert main(["analyze", "--input", str(panel_csv), "--grouped", str(grouped),
                         "--out", str(tmp_path / out)]) == 0
        variation = [(tmp_path / out / "variation.csv").read_text() for out in ("out", "blank-out")]
        assert variation[0] == variation[1]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_newlines_read_as_in_text_mode(self, panel_csv, panel_text, tmp_path, newline):
        other = tmp_path / "other.csv"
        other.write_bytes(panel_text.replace("\n", newline).encode())
        main(["analyze", "--input", str(panel_csv), "--out", str(tmp_path / "a")])
        main(["analyze", "--input", str(other), "--out", str(tmp_path / "b")])
        reports = [_mask_timestamp((tmp_path / d / "report.json").read_text()) for d in "ab"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_input_digest_is_of_the_text_with_lf_newlines(self, panel_text, tmp_path, newline):
        path = tmp_path / "panel.csv"
        path.write_bytes(panel_text.replace("\n", newline).encode())
        assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
        got = json.loads((tmp_path / "out" / "report.json").read_text())["metadata"]
        golden = json.loads((DATA / "expected_report.json").read_text())["metadata"]
        assert got["input_digest"] == golden["input_digest"]

    def test_unknown_exclude_id_exits_2(self, panel_csv, tmp_path, capsys):
        code = main(
            ["analyze", "--input", str(panel_csv), "--exclude", "99",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "99" in capsys.readouterr().err

    @pytest.mark.parametrize("no_color,red,yellow,reset", [
        (None, "\x1b[31m", "\x1b[33m", "\x1b[0m"), ("1", "", "", ""),
    ], ids=["coloured", "ADAPTOMETRY_NO_COLOR"])
    def test_diagnostics_on_a_terminal(self, tmp_path, capsys, monkeypatch,
                                       no_color, red, yellow, reset):
        path = tmp_path / "flat.csv"
        path.write_text(
            "period,unit,indicator_id,indicator_name,value\n2020,a,1,x,5\n2020,b,1,x,5\n"
        )
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        if no_color is None:
            monkeypatch.delenv("ADAPTOMETRY_NO_COLOR", raising=False)
        else:
            monkeypatch.setenv("ADAPTOMETRY_NO_COLOR", no_color)
        code = main(["analyze", "--input", str(path), "--exclude", "9",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"{yellow}warning: (2020, 1): zero variance across units{reset}\n"
            f"{red}error: --exclude ids not in panel: [9]{reset}\n"
        )

    def test_excluding_every_indicator_exits_2(self, panel_csv, tmp_path, capsys):
        out = tmp_path / "out"
        every = ",".join(str(i) for i in range(1, 20))
        code = main(["analyze", "--input", str(panel_csv), "--exclude", every, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: --exclude leaves no indicators\n"
        assert not out.exists()

    def test_bad_threshold_exits_2(self, panel_csv, tmp_path):
        code = main(
            ["analyze", "--input", str(panel_csv), "--threshold", "1.5",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2

    def test_grouped_table_writes_variation_csv(self, panel_csv, grouped_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(panel_csv), "--grouped", str(grouped_csv),
             "--cv-estimator", "unnormalized", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "variation.csv").read_text().splitlines()
        assert lines[0] == "indicator_id,cv_sample,cv_unnormalized,rank,flagged"
        assert len(lines) == 20
        doc = json.loads((out / "report.json").read_text())
        assert doc["metadata"]["cv_estimator"] == "unnormalized"
        assert len(doc["metadata"]["flagged_indicator_ids"]) == 2

    def test_grouped_rows_at_the_ends_of_the_double_range(self, panel_csv, tmp_path, capsys):
        # the sum of row 1 overflows, the squared deviations of row 2 underflow
        grouped = tmp_path / "grouped.csv"
        grouped.write_text("indicator_id,group,value\n1,A,1e308\n1,B,1.5e308\n"
                           "2,A,1e-200\n2,B,3e-200\n3,A,20\n3,B,25\n")
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(panel_csv), "--grouped", str(grouped),
                     "--flag-policy", "topk:1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (out / "variation.csv").read_text() == (
            "indicator_id,cv_sample,cv_unnormalized,rank,flagged\n"
            "2,0.707107,0.707107,1,1\n1,0.282843,0.282843,2,0\n3,0.157135,0.157135,3,0\n"
        )

    def test_undefined_cv_is_a_warning(self, panel_csv, tmp_path, capsys):
        grouped = tmp_path / "grouped.csv"
        grouped.write_text(
            "indicator_id,group,value\n1,A,0\n1,B,0\n2,A,10\n2,B,30\n3,A,20\n3,B,25\n"
        )
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(panel_csv), "--grouped", str(grouped), "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().err == "warning: indicator 1: mean 0.0 <= 0, CV undefined\n"
        lines = (out / "variation.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]

    def test_plots_are_valid_svg(self, panel_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(panel_csv), "--plots", "--out", str(out)])
        assert code == 0
        ns = "{http://www.w3.org/2000/svg}"
        weight_svg = ET.parse(out / "weight.svg").getroot()
        assert len(weight_svg.findall(f".//{ns}polyline")) == 1
        disp_svg = ET.parse(out / "dispersion.svg").getroot()
        assert len(disp_svg.findall(f".//{ns}polyline")) == 2

    def test_rerun_identical_except_timestamp(self, panel_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["analyze", "--input", str(panel_csv), "--out", str(out1)])
        main(["analyze", "--input", str(panel_csv), "--out", str(out2)])
        d1 = json.loads((out1 / "report.json").read_text())
        d2 = json.loads((out2 / "report.json").read_text())
        d1["metadata"].pop("generated_at")
        d2["metadata"].pop("generated_at")
        assert d1 == d2

    def test_inexact_constant_indicators_give_no_edge(self, tmp_path, capsys):
        # 0.7 and 0.1 have inexact means over 6 units, so their centered
        # columns are about 1e-17, not 0: still zero variance
        a, b = (10, 25, 40, 55, 35, 20), (30, 12, 44, 20, 50, 33)
        path = tmp_path / "flat.csv"
        path.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"2020,u{u},{i},x{i},{v}\n" for u in range(6)
                      for i, v in ((1, a[u]), (2, b[u]), (3, 0.7), (4, 0.1)))
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: (2020, 3): zero variance across units\n"
            "warning: (2020, 4): zero variance across units\n"
        )
        (record,) = json.loads((out / "report.json").read_text())["periods"]
        assert (record["weight"], record["edge_count"], record["edges"]) == (0.0, 0, [])


    def test_huge_indicator_id_written_verbatim(self, tmp_path):
        big = 10**23  # beyond int64: edges hold positions, not ids
        factor = (10.0, 30.0, 20.0, 60.0)
        csv = tmp_path / "big.csv"
        csv.write_text("period,unit,indicator_id,indicator_name,value\n" + "".join(
            f"2020,u{u},{i},x{i},{v}\n"
            for u, f in enumerate(factor) for i, v in ((1, f), (2, (5, 6, 6, 5)[u]), (big, f / 2))
        ))
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(csv), "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert f'"j": {big},' in text
        (record,) = json.loads(text)["periods"]
        assert [(e["i"], e["j"]) for e in record["edges"]] == [(1, big)]
        assert record["degrees"] == {"1": 1, "2": 0, str(big): 1}
        header, *rows = (out / "matrices" / "2020.csv").read_text().splitlines()
        assert header == f"indicator_id,1,2,{big}"
        assert rows[2].startswith(f"{big},1.00,")

    def test_tiny_values_correlate_exactly(self, tmp_path, capsys):
        # the squares of 1e-200 underflow to 0; the true r(1, 2) is 0.5
        path = tmp_path / "tiny.csv"
        path.write_text(
            "period,unit,indicator_id,indicator_name,value\n"
            + "".join(f"2020,{u},{i},x{i},{v!r}\n"
                      for u, row in zip("abc", [(1e-200, 1, 2), (3e-200, 2, 4), (2e-200, 3, 6)])
                      for i, v in enumerate(row, start=1))
        )
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        (record,) = json.loads((out / "report.json").read_text())["periods"]
        assert [(e["i"], e["j"]) for e in record["edges"]] == [(2, 3)]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
    def test_output_files_follow_the_umask(self, panel_csv, grouped_csv, tmp_path, umask, mode):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert main(["analyze", "--input", str(panel_csv), "--grouped", str(grouped_csv),
                         "--plots", "--out", str(out / "analyze")]) == 0
            assert main(["synth", "--config", str(config), "--out", str(out / "synth")]) == 0
        finally:
            os.umask(old)
        modes = {str(p.relative_to(out)): stat.S_IMODE(p.stat().st_mode)
                 for p in out.rglob("*") if p.is_file()}
        assert len(modes) == 14
        assert modes == dict.fromkeys(modes, mode)

    def test_run_leaves_the_umask_alone(self, panel_csv, grouped_csv, tmp_path, monkeypatch):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out = tmp_path / "out"

        def refuse(*args):
            raise AssertionError("the process umask and file modes are the kernel's")

        monkeypatch.setattr(os, "umask", refuse)
        monkeypatch.setattr(os, "chmod", refuse)
        assert main(["analyze", "--input", str(panel_csv), "--grouped", str(grouped_csv),
                     "--plots", "--out", str(out / "analyze")]) == 0
        assert main(["synth", "--config", str(config), "--out", str(out / "synth")]) == 0
        assert len([p for p in out.rglob("*") if p.is_file()]) == 14


class TestWriteErrors:
    """A write that fails exits 2 with one error line, never a traceback, and
    leaves no temporary file behind."""

    @pytest.mark.parametrize("command", ["analyze", "synth"])
    def test_out_under_a_regular_file(self, command, panel_csv, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        source = ["--input", str(panel_csv)] if command == "analyze" else ["--config", str(config)]
        assert main([command, *source, "--out", str(afile / "x")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {afile / 'x'}")
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_failed_rename_removes_its_temporary(self, panel_csv, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'report.json'}: Is a directory\n"
        )
        assert not list(out.rglob(".tmp-*"))

    @pytest.mark.parametrize("error,code,message", [
        (OSError(28, "No space left on device"), 2, "cannot write {}: No space left on device"),
        (am.PanelError("bad block"), 1, "bad block"),
    ], ids=["OSError", "PanelError"])
    def test_chunks_failing_part_way_leave_the_old_file(
        self, error, code, message, tmp_path, capsys, monkeypatch
    ):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out = tmp_path / "out"
        out.mkdir()
        (out / "panel.csv").write_bytes(b"old panel\n")
        chunks = cli_module.panel_csv_chunks

        def failing_chunks(panel):
            yield from list(chunks(panel))[:2]  # the header and the first period
            raise error

        monkeypatch.setattr(cli_module, "panel_csv_chunks", failing_chunks)
        assert main(["synth", "--config", str(config), "--out", str(out)]) == code
        assert capsys.readouterr().err == f"error: {message.format(out / 'panel.csv')}\n"
        assert (out / "panel.csv").read_bytes() == b"old panel\n"
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_unwritable_panel_label_leaves_no_out(self, tmp_path, capsys, monkeypatch):
        # the label check runs when the pieces are asked for, before _write makes --out
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        generate = cli_module.generate_panel
        monkeypatch.setattr(cli_module, "generate_panel", lambda c: dataclasses.replace(
            generate(c), periods=("2020-01", "2020-06 "),
        ))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: label '2020-06 ' holds a line break or surrounding whitespace, "
            "so parse_panel could not read it back\n"
        )
        assert not out.exists()


class TestBlasIndependence:
    # Each row of a distance CSV is written from a Gram estimate whose last
    # bits follow the BLAS kernel and its thread count, or from the exact
    # kernel where a digit is in doubt: the text must follow neither.
    # OPENBLAS_CORETYPE picks numpy's OpenBLAS kernel, and other BLAS
    # libraries ignore both variables.
    SETTINGS = {"default": {}, "one thread": {"OPENBLAS_NUM_THREADS": "1"},
                "Sandybridge kernel": {"OPENBLAS_CORETYPE": "Sandybridge"}}

    def test_reference_distance_csvs_are_the_same_under_each_blas(self, tmp_path, child_env):
        base = {k: v for k, v in child_env.items() if not k.startswith("OPENBLAS_")}
        written = {}
        for name, extra in self.SETTINGS.items():
            out = tmp_path / name.replace(" ", "-")
            subprocess.run(
                [sys.executable, "-m", "adaptometry.cli", "analyze", *REFERENCE_ARGS,
                 "--plots", "--out", str(out)],
                env={**base, **extra}, capture_output=True, check=True, timeout=120,
            )
            written[name] = {p.name: p.read_text() for p in sorted((out / "distances").iterdir())}
        panel = am.exclude_indicators(am.parse_panel((DATA / "ukraine_fears_panel.csv").read_text()),
                                      {17, 19})
        units = [writers.csv_field(u) for u in panel.units]
        exact = {f"{p}.csv": "".join(writers.matrix_csv_chunks(
            "unit", units, am.distance_matrix(am.slice_period(panel, p)))) for p in panel.periods}
        for name in self.SETTINGS:
            assert written[name] == exact, name


class TestSimdIndependence:
    # numpy picks the loop of each integer gather, shift and division the CSV
    # writer runs by the CPU's features; with AVX2 and AVX-512 switched off
    # (X86_V3, X86_V4 and their groups) the CSVs must be the same bytes.
    DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
    CHILD = (
        "import sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "print(__cpu_features__['X86_V4'])\n"
        "from adaptometry.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def test_reference_csvs_without_avx2_and_avx512(self, tmp_path, child_env):
        features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
        if not features.get("X86_V4"):
            pytest.skip("this CPU has no X86_V4 features to switch off")
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-c", self.CHILD, "analyze", *REFERENCE_ARGS, "--out", str(out)],
            env={**child_env, "NPY_DISABLE_CPU_FEATURES": self.DISABLED},
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert done.stdout == "False\n"
        _assert_reference_csvs(out)


class TestMemory:
    """Outputs go to their files in pieces and periods are computed one at a
    time. numpy reports its buffers to tracemalloc."""

    def test_synth_never_holds_the_panel_text(self, tmp_path):
        # 300 x 150 x 4 cells: panel.csv is 8.6 MB, and its text alone held at
        # once took the peak to 17.9 MiB
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG.replace("units = 40", "units = 300").replace(
            "indicators = 5", "indicators = 150").replace(
            "periods = 2020-01:baseline, 2020-06:stressed",
            "periods = 2020-01:baseline, 2020-02:stressed, 2020-03:baseline, 2020-04:stressed"))
        tracemalloc.start()
        try:
            assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "o" / "panel.csv").stat().st_size > 8 * 10**6
        assert peak < 17.9 * 2**20 / 2

    def test_synth_holds_the_panel_about_once(self, tmp_path):
        # 300 x 150 x 4 cells, a 1.37 MiB panel: with a copy of the panel in
        # IndicatorPanel, fresh (m, n) temporaries per term of each period and
        # every value text of a block alive at once, the run peaked at 3.71 MiB
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG.replace("units = 40", "units = 300").replace(
            "indicators = 5", "indicators = 150").replace("noise_sd = 5.0", "noise_sd = 4").replace(
            "seed = 7", "seed = 1").replace(
            "periods = 2020-01:baseline, 2020-06:stressed",
            "periods = 2020-01:baseline, 2020-02:stressed, 2020-03:baseline, 2020-04:stressed"))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * 2**20

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss in KiB and a child's start from its parent's "
                               "high-water mark are Linux's")
    def test_synth_peak_rss_holds_the_panel_about_once(self, tmp_path, child_env):
        # synth 2000 x 200 x 4 holds its 12.2 MiB panel about once: the peak
        # RSS of a fresh process running it exceeds that of one that imports
        # adaptometry.cli, draws from numpy.random and makes one BLAS product
        # by at most 2.25 times the panel (22 MiB measured on 3.11; 37 MiB when
        # the panel was copied and each period built from temporaries)
        config = tmp_path / "big.cfg"
        config.write_text(CHUNKS_CONFIG.replace("units = 200", "units = 2000").replace(
            "indicators = 50", "indicators = 200"))

        def peak_mib(*args):
            done = subprocess.run([sys.executable, "-c", PEAK_MIB, *args], env=child_env,
                                  capture_output=True, text=True, check=True, timeout=120)
            return float(done.stdout)

        base = peak_mib("-c", "import numpy as np, adaptometry.cli\n"
                              "a = np.random.default_rng(1).standard_normal((64, 64))\na @ a")
        synth = peak_mib("-c", "import sys\nfrom adaptometry.cli import main\n"
                               "sys.exit(main(sys.argv[1:]))",
                         "synth", "--config", str(config), "--out", str(tmp_path / "big"))
        assert (tmp_path / "big" / "panel.csv").stat().st_size > 0
        panel = 2000 * 200 * 4 * 8 / 2**20
        assert synth - base <= 2.25 * panel, (synth, base, panel)

    def test_analyze_holds_one_distance_matrix(self, tmp_path, monkeypatch):
        # the peak from analyze's first period on: 4 periods of 400 x 20 against
        # the first period alone, within less than one more 400 x 400 matrix
        m = 400
        config = am.SynthConfig(
            units=m, indicators=20,
            periods=tuple((f"2020-0{k}", ("baseline", "stressed")[k % 2]) for k in range(1, 5)),
            baseline_means=(50.0,) * 20, noise_sd=4.0, loading_baseline=0.0,
            loading_stressed=15.0, variance_multiplier=2.0, seed=1,
        )
        panel = am.generate_panel(config)
        first = am.IndicatorPanel(panel.periods[:1], panel.units, panel.indicators,
                                  panel.values[:1])
        analyze = cli_module.analyze
        growth = {}
        for name, p in (("four", panel), ("first", first)):
            (tmp_path / f"{name}.csv").write_text(am.serialize_panel(p))
            start = []

            def traced(*args, start=start):
                tracemalloc.reset_peak()
                start.append(tracemalloc.get_traced_memory()[0])
                return analyze(*args)

            monkeypatch.setattr(cli_module, "analyze", traced)
            tracemalloc.start()
            try:
                assert main(["analyze", "--input", str(tmp_path / f"{name}.csv"),
                             "--out", str(tmp_path / name)]) == 0
                growth[name] = tracemalloc.get_traced_memory()[1] - start[0]
            finally:
                tracemalloc.stop()
        assert growth["four"] < growth["first"] + m * m * 8

    def test_report_outlives_every_correlation_matrix(self, panel_csv, tmp_path, monkeypatch):
        # report.json reads each period's edge arrays, so no period's n x n
        # matrix is alive when it is written
        analyze, write = cli_module.analyze, cli_module._write
        matrices = []
        alive_at_report = []

        def traced(*args):
            for result in analyze(*args):
                matrices.append(weakref.ref(result.network.matrix.values))
                yield result

        def traced_write(path, chunks):
            if os.path.basename(path) == "report.json":
                alive_at_report.append([ref() is not None for ref in matrices])
            write(path, chunks)

        monkeypatch.setattr(cli_module, "analyze", traced)
        monkeypatch.setattr(cli_module, "_write", traced_write)
        assert main(["analyze", "--input", str(panel_csv), "--out", str(tmp_path / "out")]) == 0
        assert alive_at_report == [[False] * 4]


def _old_report_json(doc: dict, results) -> str:
    """The report.json writer before edges were formatted by hand: the reference."""
    doc = copy.deepcopy(doc)
    for record, result in zip(doc["periods"], results, strict=True):
        record["edges"] = [{"i": e.i, "j": e.j, "abs_r": e.weight} for e in result.network.edges]
    return json.dumps(doc, indent=2) + "\n"


def _doc(results, **metadata) -> dict:
    return {"metadata": metadata, "periods": [_period_record(r) for r in results]}


def _edges(results) -> list:
    """What _report_json reads of each result: the edge arrays the CLI keeps."""
    return [(r.network.matrix.indicator_ids, r.network.edge_a, r.network.edge_b,
             r.network.edge_weight) for r in results]


def _report(doc: dict, results) -> str:
    """The text _report_json writes in pieces for these results, which must
    not depend on the edges per piece: the default, and 1, 2 and 3, which
    split a period's edges so that its last piece is partial or full."""
    texts = set()
    for block in (writers._FORMAT_BLOCK_ELEMENTS, 1, 2, 3):
        with mock.patch.object(writers, "_FORMAT_BLOCK_ELEMENTS", block):
            texts.add("".join(_report_json(doc, _edges(results))))
    assert len(texts) == 1
    return texts.pop()


def _panel(periods, values) -> am.IndicatorPanel:
    values = np.asarray(values, dtype=float)
    return am.IndicatorPanel(
        periods=tuple(periods),
        units=tuple(f"u{k}" for k in range(values.shape[1])),
        indicators=tuple(am.Indicator(k + 1, f"x{k + 1}") for k in range(values.shape[2])),
        values=values,
    )


class TestReportJson:
    """report.json is the text json.dumps(doc, indent=2) gives over dict edges."""

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["--threshold", "0.99"],  # no period has an edge
            ["--threshold", "0.01"],
            ["--exclude", "17,19"],
            ["--exclude", "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18"],  # one indicator
        ],
        ids=["default", "no edges", "low threshold", "exclude", "one indicator left"],
    )
    def test_cli_report_matches_old_writer(self, panel_csv, panel, tmp_path, args):
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(panel_csv), *args, "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        metadata = json.loads(text)["metadata"]
        exclude = metadata["excluded_indicator_ids"]
        results = list(am.analyze(panel, metadata["threshold"], exclude))
        assert text == _old_report_json(_doc(results, **metadata), results)
        assert ('"edges": []' in text) == (args == ["--threshold", "0.99"] or len(exclude) == 18)

    def test_every_pair_an_edge(self):
        # every indicator is an affine function of one unit factor
        factor = np.array([10.0, 30.0, 20.0, 60.0, 45.0])
        values = [np.stack([factor, 100 - factor, factor / 2 + 7, 90 - factor], axis=1)] * 2
        results = list(am.analyze(_panel(("a", "b"), values), 0.7))
        assert [len(r.network.edges) for r in results] == [6, 6]
        doc = _doc(results, threshold=0.7)
        assert _report(doc, results) == _old_report_json(doc, results)

    def test_more_edges_than_a_block(self):
        # 190 indicators driven by one factor: 17,955 edges with varied weights,
        # three blocks of edges at the default block size
        rng = np.random.default_rng(5)
        factor = rng.normal(0.0, 10.0, (20, 1))
        values = 50.0 + factor * rng.uniform(0.5, 1.5, 190) + rng.normal(0.0, 2.0, (20, 190))
        results = list(am.analyze(_panel(("p",), values[None]), 0.7))
        assert results[0].network.edge_weight.size == 17955 > writers._FORMAT_BLOCK_ELEMENTS
        doc = _doc(results, threshold=0.7)
        text = "".join(_report_json(doc, _edges(results)))
        assert text == _old_report_json(doc, results)

    def test_edges_hold_one_block_of_texts(self):
        # the network of test_more_edges_than_a_block, 1.67 MiB of edge text; a
        # for loop holds each piece while the next is built. With float_reprs
        # cutting each block of 2**14 edges into passes, the peak was 1.89
        # times the text
        rng = np.random.default_rng(5)
        factor = rng.normal(0.0, 10.0, (20, 1))
        values = 50.0 + factor * rng.uniform(0.5, 1.5, 190) + rng.normal(0.0, 2.0, (20, 190))
        (edges,) = _edges(am.analyze(_panel(("p",), values[None]), 0.7))

        def drain():
            length = 0
            for piece in cli_module._edges_json(*edges):
                length += len(piece)
            return length

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            length = drain()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert edges[3].size == 17955
        assert peak <= 1.6 * length

    def test_report_builds_no_edge_tuples(self, panel):
        results = list(am.analyze(panel, 0.7))
        _report(_doc(results, threshold=0.7), results)
        assert all("edges" not in r.network.__dict__ for r in results)
        assert sum(len(r.network.edges) for r in results) > 0

    def test_zero_periods(self):
        doc = _doc([], threshold=0.7)
        assert _report(doc, []) == _old_report_json(doc, []) == json.dumps(
            {"metadata": {"threshold": 0.7}, "periods": []}, indent=2
        ) + "\n"

    @pytest.mark.parametrize(
        "weights",
        [(0.7000000000000001, 1.0, 0.30000000000000004), (0.9999999999999999, 5e-324, 0.75)],
    )
    def test_weights_keep_their_repr(self, weights):
        (result,) = am.analyze(_panel(("p",), np.arange(18.0).reshape(1, 6, 3) ** 1.5), 0.5)
        network = dataclasses.replace(  # edges (1, 2), (1, 3), (2, 3) by position
            result.network, edge_a=np.array([0, 0, 1]), edge_b=np.array([1, 2, 2]),
            edge_weight=np.array(weights),
        )
        result = result._replace(network=network)
        doc = _doc([result])
        text = _report(doc, [result])
        assert text == _old_report_json(doc, [result])
        assert [e["abs_r"] for e in json.loads(text)["periods"][0]["edges"]] == list(weights)

    @pytest.mark.parametrize(
        "label",
        ['"edges": []', 'x"edges": [', "back\\slash", 'quote"d', "kyiv–київ", "\u2028\n\t"],
    )
    def test_period_labels_any_text(self, label):
        # validate rejects some of these labels, so call the writer directly
        rng = np.random.default_rng(3)
        values = rng.choice([0.0, 20.0, 50.0], size=(2, 5, 4))
        results = list(am.analyze(_panel((label, label + "2"), values), 0.3))
        doc = _doc(results, flag_policy='"edges": []', note=label)
        text = _report(doc, results)
        assert text == _old_report_json(doc, results)
        assert [p["period"] for p in json.loads(text)["periods"]] == [label, label + "2"]

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 3), st.integers(2, 5), st.integers(1, 5)),
        data=st.data(),
        r0=st.floats(0.01, 0.99),
    )
    def test_random_panels_match_old_writer(self, shape, data, r0):
        # few distinct values, so constant columns and correlations of 1 occur
        n_values = shape[0] * shape[1] * shape[2]
        values = data.draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.7, 33.3, 50.0, 100.0]),
            min_size=n_values, max_size=n_values,
        ))
        labels = data.draw(st.lists(st.text(max_size=6), min_size=shape[0],
                                    max_size=shape[0], unique=True))
        results = list(am.analyze(_panel(labels, np.reshape(values, shape)), r0))
        doc = _doc(results, threshold=r0)
        assert _report(doc, results) == _old_report_json(doc, results)


@pytest.fixture(scope="module")
def chunks_run(tmp_path_factory):
    """synth's outputs for CHUNKS_CONFIG, in synth/, and analyze's for its
    panel, in out/."""
    tmp = tmp_path_factory.mktemp("chunks")
    (tmp / "synth.cfg").write_text(CHUNKS_CONFIG)
    assert main(["synth", "--config", str(tmp / "synth.cfg"), "--out", str(tmp / "synth")]) == 0
    assert main(["analyze", "--input", str(tmp / "synth" / "panel.csv"),
                 "--out", str(tmp / "out")]) == 0
    return tmp


class TestSynth:
    def test_generated_panel_loads_in_analyze(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out = tmp_path / "synth-out"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        panel = am.parse_panel((out / "panel.csv").read_text())
        assert panel.n_units == 40
        assert main(
            ["analyze", "--input", str(out / "panel.csv"), "--out", str(tmp_path / "a")]
        ) == 0
        assert (tmp_path / "a" / "report.json").stat().st_size > 0

    def test_same_seed_byte_identical(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["synth", "--config", str(config), "--out", str(out1)])
        main(["synth", "--config", str(config), "--out", str(out2)])
        assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["synth", "--config", str(config), "--seed", "7", "--out", str(out1)])
        main(["synth", "--config", str(config), "--seed", "8", "--out", str(out2)])
        assert (out1 / "panel.csv").read_bytes() != (out2 / "panel.csv").read_bytes()

    def test_contrast_summary_written(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out = tmp_path / "synth-out"
        main(["synth", "--config", str(config), "--out", str(out)])
        lines = (out / "contrast.csv").read_text().splitlines()
        assert lines[0] == "seed,w_baseline,w_stressed,d_max_baseline,d_max_stressed"
        seed, wb, ws, db, ds = lines[1].split(",")
        assert float(ws) > float(wb)
        assert float(ds) > float(db)

    def test_contrast_holds_the_regime_means_of_the_report(self, chunks_run):
        # contrast.csv builds each period's network but no distance matrix;
        # it gives the means of analyze's weight and d_max at 6 decimals
        periods = json.loads((chunks_run / "out" / "report.json").read_text())["periods"]
        regimes = ["baseline", "stressed", "baseline", "stressed"]
        assert len(periods) == len(regimes)
        expected = [
            f"{np.mean([p[key] for p, r in zip(periods, regimes) if r == regime]):.6f}"
            for key in ("weight", "d_max") for regime in ("baseline", "stressed")
        ]
        header, row = (chunks_run / "synth" / "contrast.csv").read_text().splitlines()
        assert header == "seed,w_baseline,w_stressed,d_max_baseline,d_max_stressed"
        assert row.split(",") == ["1", *expected]

    def test_crlf_copy_with_a_comment_gives_the_same_matrices(self, chunks_run, tmp_path):
        crlf = tmp_path / "crlf.csv"
        lf = (chunks_run / "synth" / "panel.csv").read_bytes()
        crlf.write_bytes(b"# c\r\n" + lf.replace(b"\n", b"\r\n"))
        assert main(["analyze", "--input", str(crlf), "--out", str(tmp_path / "out")]) == 0
        for name in ("matrices", "distances"):
            _assert_same_outputs(chunks_run / "out" / name, tmp_path / "out" / name)

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_bytes(b"units = 4\xff\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {config}: not UTF-8 text (byte 0xff at offset 9)\n"
        )
        assert not (tmp_path / "o").exists()

    def test_byte_order_mark_is_dropped(self, tmp_path):
        config, bom = tmp_path / "synth.cfg", tmp_path / "bom.cfg"
        config.write_text(SYNTH_CONFIG)
        bom.write_text("\ufeff" + SYNTH_CONFIG, encoding="utf-8")
        for path, out in ((config, "o"), (bom, "bom-o")):
            assert main(["synth", "--config", str(path), "--out", str(tmp_path / out)]) == 0
        _assert_same_outputs(tmp_path / "o", tmp_path / "bom-o")

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG + "units = 7\n")
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: line 10: duplicate config key 'units'\n"
        assert not out.exists()

    def test_oversized_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG.replace("indicators = 5", f"indicators = {2**62}"))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: 40 units x {2**62} indicators x 2 periods exceeds 100000000 cells\n"
        )
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--seed=-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text("units = 1\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err
