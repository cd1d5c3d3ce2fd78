import json
import math

import pytest

from harmonicdisk import (
    ClassParams,
    HarmonicMap,
    TruncatedSeries,
    circle_image,
    identity_map,
    make_extremal_single,
    save_map,
)
from harmonicdisk import cli
from harmonicdisk.cli import run_command
from harmonicdisk.svgplot import emit_svg, render_svg

P110 = ClassParams(1, 1, 0)
PFLAGS = ["--gamma", "1", "--delta", "1", "--lambda", "0"]


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def extremal_doc(tmp_path):
    path = tmp_path / "extremal.json"
    save_map(make_extremal_single(P110, 2, order=4), path, params=P110)
    return str(path)


@pytest.fixture
def failing_doc(tmp_path):
    path = tmp_path / "failing.json"
    f = HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.3]))
    save_map(f, path, params=P110)
    return str(path)


class TestRadiiCommand:
    def test_values_and_exit(self, capsys):
        code, out = run(capsys, ["radii", *PFLAGS, "--tol", "1e-9"])
        assert code == 0
        assert out["fully_starlike"]["radius"] == pytest.approx(1 - 1 / math.sqrt(3), abs=1e-8)
        assert 0.25 < out["fully_convex"]["radius"] < 0.26
        assert out["fully_convex"]["method"] == "bisection"

    def test_missing_params_is_usage_error(self, capsys):
        code, out = run(capsys, ["radii"])
        assert code == 2 and "error" in out


class TestCheckCommand:
    def test_holding_map_exits_zero(self, capsys, extremal_doc):
        code, out = run(capsys, ["check", "--in", extremal_doc, "--grid-radius", "0.95"])
        assert code == 0
        assert out["membership"]["holds"] is True
        assert out["sufficient"]["satisfied"] is True
        assert out["sense_preserving"]["holds"] is True

    def test_failing_map_exits_one(self, capsys, failing_doc):
        code, out = run(capsys, ["check", "--in", failing_doc, "--grid-radius", "0.99"])
        assert code == 1
        assert out["membership"]["holds"] is False

    def test_flag_params_override_document(self, capsys, extremal_doc):
        code, out = run(
            capsys,
            ["check", "--in", extremal_doc, "--gamma", "2", "--delta", "2", "--lambda", "0"],
        )
        assert code == 0 and out["params"]["gamma"] == 2.0

    def test_unknown_flag_exits_two(self, capsys):
        assert run_command(["check", "--nope"]) == 2
        capsys.readouterr()

    def test_invalid_document_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "s_coeffs": [[0,0],[0.5,0]], "t_coeffs": []}')
        code, out = run(capsys, ["check", "--in", str(bad), *PFLAGS])
        assert code == 2 and "error" in out

    def test_missing_file_exits_two(self, capsys):
        code, out = run(capsys, ["check", "--in", "/nonexistent/f.json", *PFLAGS])
        assert code == 2

    @pytest.mark.parametrize("error,code", [(TypeError, 3), (ValueError, 2)])
    def test_exit_code_by_exception_type(self, capsys, monkeypatch, extremal_doc, error, code):
        def broken(args):
            raise error("unsupported operand")

        monkeypatch.setitem(cli._COMMANDS, "check", broken)
        assert run_command(["check", "--in", extremal_doc]) == code
        captured = capsys.readouterr()
        assert "unsupported operand" in json.loads(captured.out)["error"]
        assert ("Traceback" in captured.err) == (code == 3)

    def test_verbose_summary_on_stderr(self, extremal_doc, capsys):
        code = run_command(["check", "--in", extremal_doc, "--verbose"])
        captured = capsys.readouterr()
        assert code == 0
        assert "membership: holds" in captured.err


class TestExtremalCommand:
    def test_single_document(self, capsys, tmp_path):
        out_path = tmp_path / "f.json"
        code, doc = run(capsys, ["extremal", *PFLAGS, "--m", "2", "--out", str(out_path)])
        assert code == 0
        assert doc["t_coeffs"][2] == [0.25, 0.0]
        assert json.loads(out_path.read_text()) == doc

    def test_full_document(self, capsys):
        code, doc = run(capsys, ["extremal", *PFLAGS, "--order", "8"])
        assert code == 0
        assert doc["s_coeffs"][2] == [0.5, 0.0]
        assert len(doc["s_coeffs"]) == 9


class TestConvolveCommand:
    def test_coefficientwise_product(self, capsys, extremal_doc):
        code, doc = run(capsys, ["convolve", "--in", extremal_doc, "--in", extremal_doc])
        assert code == 0
        assert doc["t_coeffs"][2] == [0.0625, 0.0]
        assert doc["params"] == {"gamma": 1.0, "delta": 1.0, "lambda": 0.0}

    def test_requires_two_inputs(self, capsys, extremal_doc):
        code, out = run(capsys, ["convolve", "--in", extremal_doc])
        assert code == 2


class TestGrowthCommand:
    def test_point_values(self, capsys):
        code, out = run(
            capsys, ["growth", *PFLAGS, "--order", "512", "--grid-radius", "0.5"]
        )
        assert code == 0
        assert out["upper"]["value"] == pytest.approx(0.664481, abs=1e-5)
        assert out["lower"]["value"] == pytest.approx(0.396828, abs=1e-5)

    def test_envelope_with_document(self, capsys, extremal_doc):
        code, out = run(capsys, ["growth", *PFLAGS, "--in", extremal_doc])
        assert code == 0 and out["envelope"]["holds"] is True


class TestOracleCommand:
    def test_starlike_oracle(self, capsys, extremal_doc):
        code, out = run(
            capsys, ["oracle", "starlike", "--in", extremal_doc, "--grid-angles", "256"]
        )
        assert code == 0
        assert out["report"]["radius"] >= 1 - 1 / math.sqrt(3) - 1e-3

    def test_unknown_property_is_usage_error(self, capsys):
        assert run_command(["oracle", "roundish", "--in", "x.json"]) == 2
        capsys.readouterr()


class TestPlotCommand:
    def test_writes_deterministic_svg(self, capsys, extremal_doc, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            code, out = run(
                capsys,
                ["plot", "--in", extremal_doc, "--out", str(path),
                 "--grid-radius", "0.75", "--grid-radii", "3"],
            )
            assert code == 0
            assert out["radii"] == [0.25, 0.5, 0.75]
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.count("<path") == 3 and "r=0.75" in text

    def test_requires_output_path(self, capsys, extremal_doc):
        code, out = run(capsys, ["plot", "--in", extremal_doc])
        assert code == 2


class TestReportCommand:
    def test_composite_report(self, capsys, extremal_doc):
        code, out = run(capsys, ["report", "--in", extremal_doc])
        assert code == 0
        for key in ("sufficient", "bounds", "membership", "fully_starlike", "fully_convex"):
            assert key in out
        assert out["bounds"]["holds"] is True

    def test_bound_violation_drives_exit_code(self, capsys, tmp_path):
        # b_2 = 0.26 violates the coefficient bound (conclusive) although the
        # sampled membership test at radius 0.95 sees no violation
        path = tmp_path / "sneaky.json"
        f = HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.26]))
        save_map(f, path, params=P110)
        code, out = run(capsys, ["report", "--in", str(path), "--grid-radius", "0.95"])
        assert code == 1
        assert out["bounds"]["holds"] is False
        assert out["membership"]["holds"] is True


class TestSvgEmitter:
    def test_render_deterministic(self):
        polys = [circle_image(identity_map(), r, 128) for r in (0.25, 0.5, 0.75)]
        assert render_svg(polys) == render_svg(polys)

    def test_emit_to_stream_and_labels(self):
        import io

        polys = [circle_image(identity_map(), 0.5, 64)]
        buf = io.StringIO()
        emit_svg(polys, buf)
        text = buf.getvalue()
        assert text.startswith("<?xml")
        assert 'version="1.1"' in text and "viewBox" in text
        assert "r=0.5" in text

    def test_io_failure_carries_path(self):
        polys = [circle_image(identity_map(), 0.5, 64)]
        with pytest.raises(OSError, match="/nonexistent"):
            emit_svg(polys, "/nonexistent/dir/out.svg")
