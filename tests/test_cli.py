import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harmonicdisk import (
    ClassParams,
    HarmonicMap,
    InternalConsistencyError,
    PolarGrid,
    TruncatedSeries,
    circle_image,
    growth_upper,
    identity_map,
    load_map,
    make_extremal_full,
    make_extremal_single,
    membership_sampled,
    numeric_radius_oracle,
    radius_fully_convex,
    save_map,
    sense_preserving_check,
    slice_membership_sampled,
)
from harmonicdisk import cli
from harmonicdisk.cli import run_command
from harmonicdisk.geometry import CirclePolyline
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
        assert out["fully_convex"]["method"] == "closed_form"

    def test_tol_does_not_move_the_radii(self, capsys):
        # the class radii are closed forms, so a coarse --tol gives the same
        # values as the default
        _, coarse = run(capsys, ["radii", *PFLAGS, "--tol", "0.1"])
        _, default = run(capsys, ["radii", *PFLAGS])
        assert coarse == default
        assert abs(coarse["fully_starlike"]["radius"] - (1 - 1 / math.sqrt(3))) <= 1e-15

    def test_missing_params_is_usage_error(self, capsys):
        code, out = run(capsys, ["radii"])
        assert code == 2 and "error" in out

    @pytest.mark.parametrize("command", ["radii", "report"])
    def test_internal_consistency_error_exits_three(self, capsys, monkeypatch, tmp_path, command):
        # no solver raises it; one that did would report a fault, not bad input
        def inconsistent(p, tol=1e-9):
            raise InternalConsistencyError("starlike quadratic: expected sign change on (0, 1)")

        monkeypatch.setattr("harmonicdisk.radii.radius_fully_starlike", inconsistent)
        path = tmp_path / "huge_delta.json"
        f = HarmonicMap(TruncatedSeries([0, 1, 0.01]), TruncatedSeries([0, 0, 0.01]))
        save_map(f, path, params=ClassParams(1, 1e307, 0))
        argv = {
            "radii": ["radii", "--gamma", "1", "--delta", "1e307", "--lambda", "0"],
            "report": ["report", "--in", str(path)],
        }[command]
        code = run_command(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["error"].startswith(
            "internal error: InternalConsistencyError: starlike quadratic: expected sign change"
        )
        assert "Traceback" in captured.err

    @pytest.mark.parametrize("command", ["radii", "report"])
    def test_large_delta_radii_are_values(self, capsys, tmp_path, command):
        # at delta = 1e307 both class radii lie within one ulp of 1; the
        # paper's polynomials cancel there, their factored forms do not
        path = tmp_path / "huge_delta.json"
        f = HarmonicMap(TruncatedSeries([0, 1, 0.01]), TruncatedSeries([0, 0, 0.01]))
        save_map(f, path, params=ClassParams(1, 1e307, 0))
        argv = {
            "radii": ["radii", "--gamma", "1", "--delta", "1e307", "--lambda", "0"],
            "report": ["report", "--in", str(path)],
        }[command]
        code, out = run(capsys, argv)
        assert code <= 1
        for key in ("fully_starlike", "fully_convex"):
            assert out[key]["radius"] == math.nextafter(1.0, 0.0)
            assert out[key]["bracket"] == [math.nextafter(1.0, 0.0), 1.0]


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

    @pytest.mark.parametrize(
        "field,doc",
        [
            ("s_coeffs[2]", '{"version": 1, "s_coeffs": [[0,0],[1,0],[1%s,0]], "t_coeffs": []}'),
            ("params.gamma", '{"version": 1, "params": {"gamma": 1%s, "delta": 1, "lambda": 0},'
             ' "s_coeffs": [[0,0],[1,0]], "t_coeffs": []}'),
        ],
    )
    def test_oversized_number_exits_two(self, capsys, tmp_path, field, doc):
        big = tmp_path / "big.json"
        big.write_text(doc % ("0" * 400))
        code, out = run(capsys, ["check", "--in", str(big), *PFLAGS])
        assert code == 2 and out["error"].startswith(f"{field}: ")

    @pytest.mark.parametrize("command", ["check", "report"])
    @pytest.mark.parametrize("kind", ["m2", "extremal"])
    def test_overflowing_class_weights_of_zero_coefficients_give_a_verdict(self, capsys, tmp_path, command, kind):
        # delta = 1e307 is a valid parameter, but the order-64 weights of m >= 3
        # overflow to inf; a zero coefficient times an inf weight is 0 in L s
        p = ClassParams(1, 1e307, 0)
        path = tmp_path / "huge_delta.json"
        if kind == "extremal":
            f = make_extremal_full(p, 64)
        else:
            s, t = [0.0] * 65, [0.0] * 65
            s[1], s[2], t[2] = 1.0, 0.01, 0.01
            f = HarmonicMap(TruncatedSeries(s), TruncatedSeries(t))
        save_map(f, path, params=p)
        code, out = run(capsys, [command, "--in", str(path)])
        assert code in (0, 1) and "error" not in out
        assert math.isfinite(out["membership"]["margin"])

    @pytest.mark.parametrize("command", ["check", "report"])
    def test_overflowing_class_weights_exit_two(self, capsys, tmp_path, command):
        # weight(3) = 9 * 2e307 is inf, so a nonzero s[3] = 0.01 has no finite image under L
        path = tmp_path / "huge_delta.json"
        s, t = [0.0] * 65, [0.0] * 65
        s[1], s[3] = 1.0, 0.01
        save_map(HarmonicMap(TruncatedSeries(s), TruncatedSeries(t)), path, params=ClassParams(1, 1e307, 0))
        code, out = run(capsys, [command, "--in", str(path)])
        assert code == 2 and out["error"].endswith("is not finite (inf): the weighted moduli overflowed")

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

    # numpy's overflow warnings stay warnings, as they do for the command-line tool
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_product_exits_two(self, capsys, tmp_path):
        # each document is valid, but 1e200 * 1e200 overflows; no Infinity reaches stdout
        path = tmp_path / "big.json"
        path.write_text('{"version": 1, "s_coeffs": [[0,0],[1,0],[1e200,0]], "t_coeffs": []}')
        code, out = run(capsys, ["convolve", "--in", str(path), "--in", str(path)])
        assert code == 2 and out["error"] == "coefficients must be finite (no NaN/Inf)"


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_is_an_internal_fault(self, capsys):
        # budget and weight both overflow at gamma 1e308, so the growth sums
        # are NaN; NaN is not JSON, and a result holding one is a fault
        def reject(constant):
            raise AssertionError(f"{constant} in the output")

        code = run_command(["growth", "--gamma", "1e308", "--delta", "1.7e308", "--lambda", "0"])
        captured = capsys.readouterr()
        assert code == 3
        out = json.loads(captured.out, parse_constant=reject)
        assert out["error"].startswith("internal error: ValueError: Out of range float values are not JSON compliant")
        assert "Traceback" in captured.err


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


#: (command, flag) pairs the command does not read, so it does not accept them
UNDECLARED = [
    ("check", "--out"), ("check", "--tol"), ("radii", "--out"), ("growth", "--out"),
    ("growth", "--tol"), ("extremal", "--in"), ("extremal", "--tol"), ("convolve", "--tol"),
    ("oracle", "--grid-radius"), ("oracle", "--grid-radii"), ("oracle", "--out"),
    ("plot", "--tol"), ("report", "--out"),
]


def valid_argv(command, doc, tmp_path):
    return {
        "check": ["check", "--in", doc],
        "radii": ["radii", *PFLAGS],
        "growth": ["growth", *PFLAGS],
        "extremal": ["extremal", *PFLAGS, "--order", "4"],
        "convolve": ["convolve", "--in", doc, "--in", doc],
        "oracle": ["oracle", "starlike", "--in", doc, "--grid-angles", "64", "--tol", "0.05"],
        "plot": ["plot", "--in", doc, "--out", str(tmp_path / "p.svg")],
        "report": ["report", "--in", doc],
    }[command]


class TestFlags:
    @pytest.mark.parametrize("command,flag", UNDECLARED)
    def test_undeclared_flag_exits_two(self, capsys, extremal_doc, tmp_path, command, flag):
        argv = valid_argv(command, extremal_doc, tmp_path)
        assert run_command(argv) == 0
        assert run_command([*argv, flag, "0.5"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,short,full", [
        ("growth", "--o", "--order"), ("check", "--n-e", "--n-eps"), ("radii", "--t", "--tol"),
    ])
    def test_abbreviated_flag_exits_two(self, capsys, extremal_doc, tmp_path, command, short, full):
        argv = valid_argv(command, extremal_doc, tmp_path)
        value = "1e-3" if full == "--tol" else "8"
        assert run_command([*argv, short, value]) == 2
        assert run_command([*argv, full, value]) == 0
        capsys.readouterr()

    def test_parser_is_built_once(self, capsys, extremal_doc):
        assert cli.build_parser() is cli.build_parser()
        # a shared --in list would hand the second run two documents
        assert run_command(["check", "--in", extremal_doc]) == 0
        assert run_command(["check", "--in", extremal_doc]) == 0
        capsys.readouterr()


def main_with_closed_stdout(argv):
    """Exit code and stderr of ``cli.main`` in a child whose stdout reader is gone."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # buffered, as by default: a small result then fails only at the final flush
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", "from harmonicdisk.cli import main; main()", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


class TestClosedStdout:
    """A reader that closes the pipe early changes neither the exit code nor stderr."""

    def test_large_output_keeps_exit_zero(self):
        assert main_with_closed_stdout(["extremal", *PFLAGS, "--order", "4000"]) == (0, b"")

    def test_failing_verdict_keeps_exit_one(self, failing_doc):
        assert main_with_closed_stdout(["check", "--in", failing_doc]) == (1, b"")


def run_module(module, argv, cwd):
    """Exit code and stdout of ``python -m module argv`` in a child."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=env, cwd=cwd, timeout=60)
    return proc.returncode, proc.stdout


class TestModuleForm:
    """``python -m harmonicdisk`` and ``python -m harmonicdisk.cli`` run the command line."""

    @pytest.mark.parametrize("module", ["harmonicdisk", "harmonicdisk.cli"])
    def test_radii_prints_the_document(self, capsys, module, tmp_path):
        code, out = run_module(module, ["radii", *PFLAGS], tmp_path)
        assert code == 0
        assert json.loads(out) == run(capsys, ["radii", *PFLAGS])[1]

    @pytest.mark.parametrize("module", ["harmonicdisk", "harmonicdisk.cli"])
    def test_missing_input_exits_two(self, module, tmp_path):
        code, out = run_module(module, ["check", "--in", "missing.json"], tmp_path)
        assert code == 2 and "error" in json.loads(out)


def test_cold_import_leaves_numpy_fft_unloaded():
    # ring sampling reaches numpy.fft at call time, so a CLI start does not load pocketfft
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import harmonicdisk.cli, sys; sys.exit('numpy.fft' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestLibraryDefaults:
    """An omitted flag gives the library's default."""

    def test_check(self, capsys, extremal_doc):
        f, p, _ = load_map(extremal_doc)
        _, out = run(capsys, ["check", "--in", extremal_doc])
        assert out["membership"]["margin"] == membership_sampled(f, p, PolarGrid()).margin
        assert out["membership"]["evidence"] == membership_sampled(f, p).evidence
        assert out["sense_preserving"]["margin"] == sense_preserving_check(f).margin
        slices = slice_membership_sampled(f, p)
        assert (out["slices"]["margin"], out["slices"]["samples"]) == (slices.margin, slices.samples)

    @pytest.mark.parametrize("prop", ["starlike", "convex"])
    def test_oracle(self, capsys, tmp_path, prop):
        # no symmetry, so the sampled minimum moves with the number of angles
        path = tmp_path / "skewed.json"
        f = HarmonicMap(TruncatedSeries([0, 1, 0.1 + 0.2j, 0.05j]), TruncatedSeries([0, 0, 0.1j, 0.03]))
        save_map(f, path)
        _, out = run(capsys, ["oracle", prop, "--in", str(path)])
        assert out["report"] == json.loads(json.dumps(dataclasses.asdict(numeric_radius_oracle(f, prop))))

    def test_echoed_defaults(self, capsys, extremal_doc, tmp_path):
        _, out = run(capsys, ["growth", *PFLAGS])
        assert out["n_terms"] == growth_upper(P110, 0.5).n_terms
        assert out["upper"]["value"] == growth_upper(P110, 0.5).value
        _, out = run(capsys, ["radii", *PFLAGS])
        assert out["fully_convex"]["radius"] == radius_fully_convex(P110).radius
        _, doc = run(capsys, ["extremal", *PFLAGS])
        assert len(doc["s_coeffs"]) == make_extremal_full(P110).order + 1
        _, out = run(capsys, ["plot", "--in", extremal_doc, "--out", str(tmp_path / "p.svg")])
        assert out["points_per_circle"] == circle_image(identity_map(), 0.5).n

    def test_report_extends_check(self, capsys, extremal_doc):
        _, check = run(capsys, ["check", "--in", extremal_doc])
        _, report = run(capsys, ["report", "--in", extremal_doc])
        assert list(report) == [
            "params", "sufficient", "bounds", "sense_preserving", "membership", "slices",
            "growth_envelope", "fully_starlike", "fully_convex",
        ]
        assert {key: report[key] for key in check} == check


class TestSvgEmitter:
    def test_render_deterministic(self):
        polys = [circle_image(identity_map(), r, 128) for r in (0.25, 0.5, 0.75)]
        assert render_svg(polys) == render_svg(polys)

    def test_paths_equal_the_per_point_form(self):
        """Each path's coordinates are the per-point ``f"{float(x):.6g}"`` text of x and -y.

        The seeded points include both signed zeros, subnormal-scale and
        huge coordinates and six-digit rounding ties.
        """
        rng = np.random.default_rng(57)
        polys = []
        for k, n in enumerate((64, 97, 256)):
            pts = rng.normal(scale=10.0 ** int(rng.integers(-3, 4)), size=n) + 1j * rng.normal(size=n)
            special = [0.0, -0.0, 1e-300, -1e-300, 1e300, 123456.5, 1.0000005, -2.5e-7]
            pts[: len(special)] = np.array(special) + 1j * np.array(special[::-1])
            pts[len(special)] = complex(-0.0, -0.0)
            polys.append(CirclePolyline(radius=0.3 + 0.2 * k, points=pts, n=n))
        paths = re.findall(r'<path d="M ([^"]*) Z"', render_svg(polys))
        assert paths == [
            " L ".join(f"{float(p.real):.6g},{float(-p.imag):.6g}" for p in poly.points) for poly in polys
        ]
        assert " -0,0 " in paths[0] and ",-0 " in paths[0] and "1e-300" in paths[0]

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


def _fail(make):
    """*make* with its verdict turned into a failing one."""

    def failing(*args, **kwargs):
        result = make(*args, **kwargs)
        if isinstance(result, cli.bounds.BoundReport):
            report = cli.bounds.BoundReport(rows=result.rows)
            report.__dict__["all_within"] = False
            return report
        return dataclasses.replace(result, holds=False)

    return failing


_CHECK_VERDICTS = {
    "sense_preserving": (cli, "sense_preserving_check"),
    "membership": (cli.membership, "membership_sampled"),
    "slices": (cli.membership, "slice_membership_sampled"),
}

#: per command, each top-level verdict entry and the (module, name) of the function that makes it
VERDICT_ENTRIES = {
    "check": _CHECK_VERDICTS,
    "growth": {"envelope": (cli.bounds, "growth_envelope_check")},
    "report": {
        **_CHECK_VERDICTS,
        "bounds": (cli.bounds, "coefficient_bound_check"),
        "growth_envelope": (cli.bounds, "growth_envelope_check"),
    },
}


def _holds_paths(obj, path=()):
    """The key path of every "holds" key in a parsed result."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "holds":
                yield (*path, key)
            yield from _holds_paths(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _holds_paths(value, (*path, i))


class TestExitCodeGuard:
    """The exit code reads only the top-level entries, so every verdict must live there."""

    @pytest.mark.parametrize(
        "command,entry", [(c, e) for c, entries in VERDICT_ENTRIES.items() for e in entries]
    )
    def test_failing_verdict_at_each_entry_exits_one(self, capsys, monkeypatch, extremal_doc, command, entry):
        code, out = run(capsys, [command, "--in", extremal_doc])
        assert code == 0 and all(out[e]["holds"] is True for e in VERDICT_ENTRIES[command])
        module, name = VERDICT_ENTRIES[command][entry]
        monkeypatch.setattr(module, name, _fail(getattr(module, name)))
        code, out = run(capsys, [command, "--in", extremal_doc])
        assert code == 1
        assert [e for e in VERDICT_ENTRIES[command] if out[e]["holds"] is False] == [entry]

    def test_no_verdict_below_the_top_level(self, capsys, tmp_path, extremal_doc, failing_doc):
        invalid = tmp_path / "invalid.json"
        invalid.write_text('{"version": 1, "s_coeffs": "none"}\n', encoding="utf-8")
        mix = [
            ["extremal", *PFLAGS, "--order", "64", "--out", str(tmp_path / "e.json")],
            ["convolve", "--in", extremal_doc, "--in", extremal_doc, "--out", str(tmp_path / "c.json")],
            ["plot", "--in", extremal_doc, "--out", str(tmp_path / "p.svg")],
            ["check", "--in", extremal_doc],
            ["report", "--in", extremal_doc],
            ["growth", "--in", extremal_doc],
            ["oracle", "starlike", "--in", extremal_doc],
            ["radii", *PFLAGS],
            ["check", "--in", failing_doc, "--grid-radius", "0.99"],
            ["report", "--in", failing_doc, "--grid-radius", "0.99"],
            ["check", "--in", str(invalid)],
        ]
        for argv in mix:
            code, out = run(capsys, argv)
            paths = list(_holds_paths(out))
            assert all(len(p) == 2 for p in paths), (argv, paths)
            entries = {entry for entry, _ in paths}
            assert entries == (set() if code == 2 else set(VERDICT_ENTRIES.get(argv[0], ()))), argv
            assert code in (0, 1, 2) and (code == 2 or code == any(out[e]["holds"] is False for e in entries))


class TestWrittenDocument:
    """``--out`` writes the bytes that the command prints: one encoding per document."""

    @pytest.mark.parametrize("order", ["4", "64", "1024"])
    def test_extremal(self, capsys, tmp_path, order):
        path = tmp_path / "e.json"
        assert run_command(["extremal", *PFLAGS, "--order", order, "--out", str(path)]) == 0
        printed = capsys.readouterr().out
        assert path.read_text(encoding="utf-8") == printed
        assert printed == json.dumps(json.loads(printed), indent=2) + "\n"

    def test_convolve(self, capsys, tmp_path, extremal_doc):
        path = tmp_path / "c.json"
        assert run_command(["convolve", "--in", extremal_doc, "--in", extremal_doc, "--out", str(path)]) == 0
        printed = capsys.readouterr().out
        assert path.read_text(encoding="utf-8") == printed
        g, p, _ = load_map(path)
        assert p == P110 and g.t.coeff(2) == 0.25**2

    def test_unwritable_out_prints_only_the_error(self, capsys, tmp_path):
        code, out = run(capsys, ["extremal", *PFLAGS, "--out", str(tmp_path / "missing" / "e.json")])
        assert code == 2 and list(out) == ["error"]
