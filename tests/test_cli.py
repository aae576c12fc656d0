import json
import pathlib
import re
import xml.etree.ElementTree as ET

import pytest

import adaptometry as am
from adaptometry.cli import main

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

DATA = pathlib.Path(__file__).parent / "data"


def _mask_timestamp(report: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', report)


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
        code = main(
            ["analyze", "--input", str(DATA / "ukraine_fears_panel.csv"), "--exclude", "17,19",
             "--grouped", str(DATA / "political_groups.csv"), "--out", str(out)]
        )
        assert code == 0
        got = _mask_timestamp((out / "report.json").read_text())
        assert got == _mask_timestamp((DATA / "expected_report.json").read_text())

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
        assert "error" in capsys.readouterr().err

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

    def test_bad_flag_policy_writes_nothing(self, panel_csv, grouped_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(panel_csv), "--grouped", str(grouped_csv),
             "--flag-policy", "bogus", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unknown flag policy 'bogus'\n"
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

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_newlines_read_as_in_text_mode(self, panel_csv, panel_text, tmp_path, newline):
        other = tmp_path / "other.csv"
        other.write_bytes(panel_text.replace("\n", newline).encode())
        main(["analyze", "--input", str(panel_csv), "--out", str(tmp_path / "a")])
        main(["analyze", "--input", str(other), "--out", str(tmp_path / "b")])
        reports = [_mask_timestamp((tmp_path / d / "report.json").read_text()) for d in "ab"]
        assert reports[0] == reports[1]

    def test_unknown_exclude_id_exits_2(self, panel_csv, tmp_path, capsys):
        code = main(
            ["analyze", "--input", str(panel_csv), "--exclude", "99",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "99" in capsys.readouterr().err

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

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_bytes(b"units = 4\xff\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {config}: not UTF-8 text (byte 0xff at offset 9)\n"
        )
        assert not (tmp_path / "o").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text("units = 1\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err
