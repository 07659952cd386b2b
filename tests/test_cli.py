import csv
import io
import json

import numpy as np
import pytest

from brokenline import BrokenLine, DataSet, PNorm, error_norm
from brokenline.cli import load_spline, main, render_svg

TENT_CSV = "x,f\n0,0\n1,1\n3,1\n4,0\n"


@pytest.fixture
def tent_csv(tmp_path):
    path = tmp_path / "tent.csv"
    path.write_text(TENT_CSV)
    return path


@pytest.fixture
def boundary_knot_json(tmp_path):
    """A spline on the tent's [0, 4] with a knot in the boundary gap (0, 1)."""
    path = tmp_path / "bad.json"
    bps = [{"t": 0.0, "v": 0.0}, {"t": 0.5, "v": 2.0}, {"t": 4.0, "v": 0.0}]
    path.write_text(json.dumps({"breakpoints": bps}))
    return path


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_zero_error_instance(self, tent_csv, capsys):
        code, out, _ = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["error"] <= 1e-12
        assert obj["p"] == "2" and obj["k"] == 1
        assert obj["config"][0]["kind"] == "gap"
        assert abs(obj["config"][0]["t"] - 2.0) <= 1e-12
        assert [bp["t"] for bp in obj["breakpoints"]] == [0.0, 2.0, 4.0]

    def test_svg_has_one_interior_marker(self, tent_csv, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        code, _, _ = run(
            capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2", "--emit-svg", svg
        )
        assert code == 0
        text = svg.read_text()
        assert text.count("knot-interior") == 1
        assert "<polyline" in text and "data-point" in text

    def test_svg_of_a_flat_line_over_constant_data(self, tmp_path):
        # All values equal: the plot widens its value range to one unit each way.
        data = DataSet([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        svg = tmp_path / "flat.svg"
        render_svg(data, BrokenLine([0.0, 2.0], [3.0, 3.0]), svg)
        text = svg.read_text()
        assert "nan" not in text and "inf" not in text
        assert '<polyline points="40.00,200.00 600.00,200.00"' in text

    def test_svg_marks_a_data_knot(self, tmp_path, capsys):
        peak = tmp_path / "peak.csv"
        peak.write_text("x,f\n0,0\n1,1\n2,2\n3,1\n4,0\n")
        svg = tmp_path / "out.svg"
        code, out, _ = run(capsys, "fit", "--input", peak, "--k", 1, "--p", "2", "--emit-svg", svg)
        assert code == 0
        assert json.loads(out)["config"][0]["kind"] == "data"
        text = svg.read_text()
        assert text.count("knot-data") == 1 and "knot-interior" not in text

    def test_blank_line_skipped(self, tent_csv, tmp_path, capsys):
        gappy = tmp_path / "gappy.csv"
        gappy.write_text("x,f\n0,0\n\n1,1\n3,1\n\n4,0\n")
        _, expected, _ = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2")
        code, out, _ = run(capsys, "fit", "--input", gappy, "--k", 1, "--p", "2")
        assert code == 0
        assert out == expected

    def test_header_after_a_blank_line(self, tent_csv, tmp_path, capsys):
        # The header is the first non-blank row, not only row 1.
        late = tmp_path / "late.csv"
        late.write_text("\n" + TENT_CSV)
        _, expected, _ = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2")
        code, out, _ = run(capsys, "fit", "--input", late, "--k", 1, "--p", "2")
        assert code == 0
        assert out == expected

    def test_second_header_exits_2(self, tmp_path, capsys):
        twice = tmp_path / "twice.csv"
        twice.write_text("\nx,f\n" + TENT_CSV)
        code, _, err = run(capsys, "fit", "--input", twice, "--k", 1, "--p", "2")
        assert code == 2
        assert "twice.csv:3: cannot parse" in err

    def test_unparsable_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,f\n0,0\nabc,1\n3,1\n")
        code, _, err = run(capsys, "fit", "--input", bad, "--k", 1, "--p", "2")
        assert code == 2
        assert "cannot parse" in err

    def test_internal_failure_exits_1(self, tent_csv, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("brokenline.cli.best_fit", broken)
        code, _, err = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2")
        assert code == 1
        assert err.startswith("internal error:") and "boom" in err

    def test_byte_identical_reruns(self, tent_csv, capsys):
        _, first, _ = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2")
        _, second, _ = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2")
        assert first == second

    def test_csv_format(self, tent_csv, capsys):
        code, out, _ = run(
            capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# error=")
        assert "t,v" in lines
        assert len([ln for ln in lines if not ln.startswith("#")]) == 4  # header + 3 bps

    def test_roundtrip_error_reproduction(self, tent_csv, tmp_path, capsys):
        out_path = tmp_path / "fit.json"
        code, _, _ = run(
            capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2", "--out", out_path
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        spline = load_spline(out_path)
        data = DataSet([0.0, 1.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.0])
        assert abs(error_norm(data, spline, PNorm.two()) - obj["error"]) <= 1e-12

    @pytest.mark.parametrize(
        "content",
        [
            "x,f\n1,0\n0,1\n",  # unsorted
            "x,f\n0,0\n0,1\n",  # duplicate abscissa
            "x,f\n0,nan\n1,0\n",  # NaN
            "x,f\n0\n1\n",  # wrong arity
            "x,f\n0,0\n",  # too short
        ],
    )
    def test_malformed_input_exits_2(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        code, _, err = run(capsys, "fit", "--input", bad, "--k", 1, "--p", "2")
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "fit", "--input", tmp_path / "nope.csv", "--k", 1, "--p", "2")
        assert code == 2

    def test_bad_norm_exits_2(self, tent_csv, capsys):
        code, _, err = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "0.5")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", ["abc", "nan", "-inf"])
    def test_unparsable_norm_exits_2(self, text, tent_csv, capsys):
        # "--p=" hands "-inf" to the norm parser instead of argparse's option lookup.
        code, _, err = run(capsys, "fit", "--input", tent_csv, "--k", 1, f"--p={text}")
        assert code == 2
        assert err.startswith("error: bad norm")

    @pytest.mark.parametrize("text", ["inf", "Infinity"])
    def test_infinite_norm_accepted(self, text, tent_csv, capsys):
        code, out, _ = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", text)
        assert code == 0
        assert json.loads(out)["p"] == "inf"

    @pytest.mark.parametrize("command", ["fit", "oracle"])
    def test_negative_k_exits_2(self, command, tent_csv, capsys):
        code, _, _ = run(capsys, command, "--input", tent_csv, "--k", -1, "--p", "2")
        assert code == 2

    def test_decimal_norm_accepted(self, tent_csv, capsys):
        code, out, _ = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "3.5")
        assert code == 0
        assert json.loads(out)["p"] == "3.5"

    def test_desk_scale_runtime(self, tmp_path, capsys):
        import time

        from conftest import make_rng, random_dataset

        rng = make_rng(90)
        data = random_dataset(rng, 12)
        path = tmp_path / "mu12.csv"
        rows = ["x,f"] + [f"{float(x)!r},{float(f)!r}" for x, f in zip(data.x, data.f)]
        path.write_text("\n".join(rows) + "\n")
        t0 = time.time()
        code, out, _ = run(capsys, "fit", "--input", path, "--k", 3, "--p", "inf")
        assert code == 0
        assert time.time() - t0 < 10.0
        assert json.loads(out)["k"] == 3


class TestVerify:
    def test_solver_output_verifies(self, tent_csv, tmp_path, capsys):
        fit_json = tmp_path / "fit.json"
        run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2", "--out", fit_json)
        code, out, _ = run(
            capsys, "verify", "--input", tent_csv, "--spline", fit_json, "--p", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True

    def test_boundary_knot_exits_3(self, tent_csv, boundary_knot_json, capsys):
        code, out, _ = run(
            capsys, "verify", "--input", tent_csv, "--spline", boundary_knot_json, "--p", "2"
        )
        assert code == 3
        report = json.loads(out)
        assert report["properties"]["a"]["status"] == "fail"

    def test_csv_matches_json(self, tent_csv, boundary_knot_json, capsys):
        args = ("verify", "--input", tent_csv, "--spline", boundary_knot_json, "--p", "2")
        _, out_json, _ = run(capsys, *args)
        code, out_csv, _ = run(capsys, *args, "--format", "csv")
        assert code == 3
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert rows[0] == ["property", "status", "witness"]
        assert any("," in witness for _, _, witness in rows[1:])
        from_csv = {
            name: {"status": status, **({"witness": witness} if witness else {})}
            for name, status, witness in rows[1:]
        }
        assert from_csv == json.loads(out_json)["properties"]

    @pytest.mark.parametrize(
        "command, extra",
        [("verify", ("--p", "2")), ("regularize", ())],
        ids=["verify", "regularize"],
    )
    def test_domain_mismatch_exits_2(self, command, extra, tent_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"breakpoints": [{"t": 0.0, "v": 0.0}, {"t": 9.0, "v": 0.0}]})
        )
        code, _, err = run(capsys, command, "--input", tent_csv, "--spline", bad, *extra)
        assert code == 2
        assert "interval" in err

    def test_missing_spline_exits_2(self, tent_csv, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code, _, err = run(capsys, "verify", "--input", tent_csv, "--spline", missing, "--p", "2")
        assert code == 2
        assert "cannot read" in err

    def test_invalid_json_exits_2(self, tent_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(
            capsys, "verify", "--input", tent_csv, "--spline", bad, "--p", "2"
        )
        assert code == 2


class TestRegularizeCommand:
    def test_fixture_flattens(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        spline_json = tmp_path / "spike.json"
        run(capsys, "fixture", "spike", "--i", 10, "--out", spline_json,
            "--data-out", data_csv)
        code, out, _ = run(
            capsys, "regularize", "--input", data_csv, "--spline", spline_json
        )
        assert code == 0
        obj = json.loads(out)
        for bp in obj["breakpoints"]:
            assert abs(bp["v"] - 1.0) <= 1e-12

    def test_csv_matches_json(self, tmp_path, capsys):
        data_csv, spline_json = tmp_path / "data.csv", tmp_path / "spike.json"
        run(capsys, "fixture", "spike", "--i", 10, "--out", spline_json,
            "--data-out", data_csv)
        args = ("regularize", "--input", data_csv, "--spline", spline_json)
        _, out_json, _ = run(capsys, *args)
        code, out_csv, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert rows[0] == ["t", "v"]
        expected = [[bp["t"], bp["v"]] for bp in json.loads(out_json)["breakpoints"]]
        assert [[float(t), float(v)] for t, v in rows[1:]] == expected


class TestOracleCommand:
    def test_oracle_dominates_fit(self, tent_csv, capsys):
        code, fit_out, _ = run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2")
        code2, oracle_out, _ = run(
            capsys, "oracle", "--input", tent_csv, "--k", 1, "--p", "2", "--grid", 16
        )
        assert code == 0 and code2 == 0
        assert json.loads(oracle_out)["error"] >= json.loads(fit_out)["error"] - 1e-10

    def test_csv_matches_json(self, tmp_path, capsys):
        path = tmp_path / "zigzag.csv"
        path.write_text("x,f\n0,0\n1,2\n2,1\n3,3\n4,0\n5,1\n")
        args = ("oracle", "--input", path, "--k", 1, "--p", "1.5", "--grid", 4)
        _, out_json, _ = run(capsys, *args)
        code, out_csv, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out_csv))
        obj = json.loads(out_json)
        assert obj["error"] > 0.0
        assert float(row["error"]) == obj["error"] and row["p"] == obj["p"] == "1.5"
        assert int(row["k"]) == obj["k"] and int(row["grid_per_gap"]) == obj["grid_per_gap"]


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _quote(field: str) -> str:
    """A CSV field as csv.writer's minimal quoting writes it."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _expected_csv(command: str, obj: dict) -> str:
    """The CSV text of one call, rebuilt by hand from the JSON of the same call."""
    if command == "oracle":
        row = f"{_g17(obj['error'])},{obj['p']},{obj['k']},{obj['grid_per_gap']}"
        return f"error,p,k,grid_per_gap\n{row}\n"
    if command == "verify":
        rows = [
            ",".join([name, entry["status"], _quote(entry.get("witness", ""))])
            for name, entry in obj["properties"].items()
        ]
        return "\n".join(["property,status,witness"] + rows) + "\n"
    head = []
    if command == "fit":
        head = [f"# error={_g17(obj['error'])}", f"# p={obj['p']}", f"# k={obj['k']}",
                f"# proper_knots={obj['proper_knots']}"]
    rows = [f"{_g17(bp['t'])},{_g17(bp['v'])}" for bp in obj["breakpoints"]]
    return "\n".join(head + ["t,v"] + rows) + "\n"


class TestCsvBytes:
    """Every command's CSV output, byte for byte, against its own JSON output."""

    ZIGZAG = "x,f\n0,0\n1,2\n2,1\n3,3\n4,0\n5,1\n"

    def check(self, capsys, command, *args):
        code_json, out_json, _ = run(capsys, command, *args)
        code_csv, out_csv, _ = run(capsys, command, *args, "--format", "csv")
        assert code_csv == code_json
        assert out_csv == _expected_csv(command, json.loads(out_json))
        return code_csv, out_csv

    def test_fit_tent(self, tent_csv, capsys):
        self.check(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2")

    @pytest.mark.parametrize("p", ["1", "2", "inf", "1.5"])
    def test_fit_zigzag(self, p, tmp_path, capsys):
        path = tmp_path / "zigzag.csv"
        path.write_text(self.ZIGZAG)
        self.check(capsys, "fit", "--input", path, "--k", 2, "--p", p)

    def test_verify_pass(self, tent_csv, tmp_path, capsys):
        fit_json = tmp_path / "fit.json"
        run(capsys, "fit", "--input", tent_csv, "--k", 1, "--p", "2", "--out", fit_json)
        code, _ = self.check(
            capsys, "verify", "--input", tent_csv, "--spline", fit_json, "--p", "2"
        )
        assert code == 0

    def test_verify_boundary_knot(self, tent_csv, boundary_knot_json, capsys):
        code, out = self.check(
            capsys, "verify", "--input", tent_csv, "--spline", boundary_knot_json, "--p", "2"
        )
        assert code == 3 and '"' in out  # a witness holding commas is quoted

    def test_regularize(self, tmp_path, capsys):
        data_csv, spline_json = tmp_path / "data.csv", tmp_path / "spike.json"
        run(capsys, "fixture", "spike", "--i", 10, "--out", spline_json, "--data-out", data_csv)
        self.check(capsys, "regularize", "--input", data_csv, "--spline", spline_json)

    def test_oracle(self, tmp_path, capsys):
        path = tmp_path / "zigzag.csv"
        path.write_text(self.ZIGZAG)
        self.check(capsys, "oracle", "--input", path, "--k", 1, "--p", "1.5", "--grid", 4)


class TestFixtureCommand:
    def test_spike_breakpoints(self, capsys):
        code, out, _ = run(capsys, "fixture", "spike", "--i", 10)
        assert code == 0
        obj = json.loads(out)
        assert [bp["t"] for bp in obj["breakpoints"]] == [-1.0, -0.1, 0.5, 1.0]
        assert [bp["v"] for bp in obj["breakpoints"]] == [1.0, 0.1, 5.5, 1.0]

    def test_data_out(self, tmp_path, capsys):
        data_csv = tmp_path / "spike.csv"
        code, _, _ = run(capsys, "fixture", "spike", "--i", 2, "--data-out", data_csv)
        assert code == 0
        assert data_csv.read_text() == "x,f\n-1,1\n0,1\n1,1\n"

    def test_unknown_fixture_exits_2(self, capsys):
        code, _, _ = run(capsys, "fixture", "wiggle")
        assert code == 2

    def test_small_index_exits_2(self, capsys):
        code, _, _ = run(capsys, "fixture", "spike", "--i", 1)
        assert code == 2
