"""The benchmark's three workloads: inputs from a seed, items, output checks.

Each workload builds its inputs from the seed alone and exposes a list of
items.  An item is ``(label, run)``; ``run()`` calls the library through the
``harmonicdisk`` package namespace at call time (so the traced run sees every
call) and returns a record of plain values.  ``check(label, record)`` returns
``None`` when the record passes the workload's output check, or a reason.

Importing this module imports numpy and harmonicdisk.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harmonicdisk as hd

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "highorder_reference.json"
DEFAULT_SEED = 1

#: Acceptance tolerances (tests/test_acceptance.py, criteria 3, 4 and 7).
MARGIN_TOL = 1e-9
SLACK_TOL = 1e-12
RADIUS_TOL = 1e-3
#: Agreement with the stored reference table, relative above magnitude 1.
REFERENCE_TOL = 1e-9


def random_params(rng: np.random.Generator) -> hd.ClassParams:
    """Parameter draw of the test corpus (tests/helpers.py)."""
    gamma = float(rng.uniform(0.25, 2.0))
    delta = gamma * float(rng.uniform(1.0, 2.0))
    lam = float(rng.uniform(0.0, 0.8)) * gamma
    return hd.ClassParams(gamma=gamma, delta=delta, lam=lam)


def child_env(src: Path) -> dict[str, str]:
    """Environment of a child interpreter that imports the library from *src*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _unit_roots(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def _oracle_holds(radius: float, class_radius: float) -> bool:
    return radius >= class_radius - RADIUS_TOL


class Workload:
    """Hooks shared by the workloads; subclasses define ``build``, ``items`` and ``check``."""

    name = ""
    #: The module a set-up imports cold, in a fresh interpreter.
    import_module = "harmonicdisk"

    def before_pass(self) -> None:
        """Untimed preparation before each pass over the items."""

    def close(self) -> None:
        """Release what ``build`` created."""


class Corpus(Workload):
    """Certified random members, each taken through everything ``report`` runs.

    One item is one map: sufficient condition, coefficient bounds, sense
    preservation, membership and slice membership, the growth envelope, the
    close-to-convex and half-plane tests on every slice, both class radii and
    both numeric radius oracles (acceptance criteria 4, 6 and 7).
    """

    name = "corpus"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_maps = 3 if tiny else 200
        self.grid = hd.PolarGrid(max_radius=0.95, n_radii=24, n_angles=96)
        self.envelope_grid = hd.PolarGrid(max_radius=0.9, n_radii=24, n_angles=96)
        self.n_eps = 16
        self.n_theta = 512
        self.cases: list = []

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        cases = []
        for _ in range(self.n_maps):
            p = random_params(rng)
            cases.append((p, hd.random_member(p, rng, order=16, max_terms=3)))
        self.cases = cases

    def items(self) -> list:
        return [(f"map{i}", self._runner(p, f)) for i, (p, f) in enumerate(self.cases)]

    def _runner(self, p, f):
        def run():
            grid = self.grid
            margins = [
                hd.sense_preserving_check(f, grid).margin,
                hd.membership_sampled(f, p, grid).margin,
                hd.slice_membership_sampled(f, p, n_eps=self.n_eps, grid=grid).margin,
            ]
            for eps in _unit_roots(self.n_eps):
                F = f.analytic_slice(eps)
                margins.append(hd.close_to_convex_check(F, grid).margin)
                margins.append(hd.half_plane_check(F, grid).margin)
            envelope = hd.growth_envelope_check(f, p, self.envelope_grid)
            radii = [
                hd.radius_fully_starlike(p, 1e-9).radius,
                hd.radius_fully_convex(p, 1e-9).radius,
                hd.numeric_radius_oracle(f, "starlike", tol=1e-3, n_theta=self.n_theta).radius,
                hd.numeric_radius_oracle(f, "convex", tol=1e-3, n_theta=self.n_theta).radius,
            ]
            return (
                hd.membership_sufficient(f, p).holds,
                hd.coefficient_bound_check(f, p).all_within,
                envelope.holds,
                envelope.margin,
                tuple(margins),
                tuple(radii),
            )

        return run

    def check(self, label: str, record) -> str | None:
        sufficient, within, envelope, _, margins, (r_s, r_c, o_s, o_c) = record
        if not sufficient:
            return "sufficient condition fails for a certified member"
        if not within:
            return "coefficient bound violated"
        if not envelope:
            return "growth envelope violated"
        if min(margins) < -MARGIN_TOL:
            return f"margin {min(margins)!r} below -{MARGIN_TOL}"
        if not (_oracle_holds(o_s, r_s) and _oracle_holds(o_c, r_c)):
            return f"oracle radii {o_s}, {o_c} below class radii {r_s}, {r_c}"
        return None


HIGHORDER_CHECKS = (
    "membership",
    "slices",
    "sense",
    "envelope",
    "bounds",
    "sufficient",
    "close_to_convex",
    "half_plane",
    "oracle_starlike",
    "oracle_convex",
)

#: Checks whose value is a pointwise margin of a member, which must not be
#: negative beyond MARGIN_TOL.
MARGIN_CHECKS = ("membership", "slices", "sense", "close_to_convex", "half_plane")


class HighOrder(Workload):
    """A full extremal and a dense random member at each of four high orders.

    One item is one public check on one map; each pass also runs one
    injectivity scan.  A record is ``(holds, value)``: the verdict flag and
    its margin (for bounds the extreme slack, for the sufficient condition
    budget minus total, for an oracle the radius).
    """

    name = "highorder"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.orders = (8, 16) if tiny else (512, 1024, 2048, 4096)
        n_radii, n_angles = (4, 16) if tiny else (96, 384)
        self.grid = hd.PolarGrid(max_radius=0.95, n_radii=n_radii, n_angles=n_angles)
        self.n_theta = 64 if tiny else 4096
        self.injective_n = 64 if tiny else 4096
        self.maps: list = []
        self.reference = None
        if not tiny and seed == DEFAULT_SEED and REFERENCE_PATH.exists():
            with open(REFERENCE_PATH, encoding="utf-8") as fh:
                self.reference = json.load(fh)

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        maps = []
        for order in self.orders:
            p = random_params(rng)
            maps.append((f"o{order}-extremal", order, p, hd.make_extremal_full(p, order)))
            member = hd.random_member(p, rng, order=order, max_terms=order // 8)
            maps.append((f"o{order}-random", order, p, member))
        self.maps = maps

    def items(self) -> list:
        out = []
        for label, order, p, f in self.maps:
            for check in HIGHORDER_CHECKS:
                extremal = label.endswith("extremal")
                out.append((f"{label}-{check}", self._runner(check, order, p, f, extremal)))
        _, _, _, f = self.maps[-1]
        out.append(("injective", lambda: (hd.injective_on_circle(f, 0.95, self.injective_n), 0.0)))
        return out

    def _runner(self, check: str, order: int, p, f, extremal: bool):
        grid = self.grid

        def verdict(v):
            return (v.holds, v.margin)

        def bounds():
            rep = hd.coefficient_bound_check(f, p)
            if extremal:
                # a full extremal attains the a-, sum- and difference bounds exactly
                worst = max(max(abs(r.slack_a), abs(r.slack_sum), abs(r.slack_diff)) for r in rep.rows)
                return (rep.all_within, worst)
            return (rep.all_within, min(min(r.slack_a, r.slack_b, r.slack_sum, r.slack_diff) for r in rep.rows))

        def sufficient():
            s = hd.membership_sufficient(f, p)
            return (s.holds, s.budget - s.total)

        def oracle(prop, class_radius):
            radius = hd.numeric_radius_oracle(f, prop, tol=1e-3, n_theta=self.n_theta).radius
            return (_oracle_holds(radius, class_radius(p, 1e-9).radius), radius)

        runs = {
            "membership": lambda: verdict(hd.membership_sampled(f, p, grid)),
            "slices": lambda: verdict(hd.slice_membership_sampled(f, p, n_eps=16, grid=grid)),
            "sense": lambda: verdict(hd.sense_preserving_check(f, grid)),
            "envelope": lambda: verdict(hd.growth_envelope_check(f, p, grid, n_terms=order)),
            "bounds": bounds,
            "sufficient": sufficient,
            "close_to_convex": lambda: verdict(hd.close_to_convex_check(f.analytic_slice(1.0), grid)),
            "half_plane": lambda: verdict(hd.half_plane_check(f.analytic_slice(1.0), grid)),
            "oracle_starlike": lambda: oracle("starlike", hd.radius_fully_starlike),
            "oracle_convex": lambda: oracle("convex", hd.radius_fully_convex),
        }
        return runs[check]

    def check(self, label: str, record) -> str | None:
        holds, value = record
        kind = label.split("-")[-1]
        extremal = "-extremal-" in label
        if label == "injective" and not holds:
            return "circle image of a member self-intersects"
        if kind == "envelope" and not (holds or extremal and value >= -MARGIN_TOL):
            # the full extremal attains the envelope, so its margin is zero up
            # to rounding and the strict verdict may read "violated"
            return "growth envelope violated"
        if kind == "bounds" and extremal and value > SLACK_TOL:
            return f"extremal slack {value!r} exceeds {SLACK_TOL}"
        if not extremal and kind in MARGIN_CHECKS and value < -MARGIN_TOL:
            return f"margin {value!r} below -{MARGIN_TOL}"
        if self.reference is not None:
            ref_holds, ref_value = self.reference[label]
            if holds != ref_holds or abs(value - ref_value) > REFERENCE_TOL * max(1.0, abs(ref_value)):
                return f"({holds}, {value!r}) differs from reference ({ref_holds}, {ref_value!r})"
        return None


def write_reference() -> int:
    """Store one pass of the default-seed ``highorder`` records as the reference table."""
    wl = HighOrder(DEFAULT_SEED)
    wl.reference = None
    wl.build()
    table = {}
    for label, run in wl.items():
        holds, value = run()
        table[label] = [bool(holds), float(value)]
    lines = [f"  {json.dumps(label)}: {json.dumps(row)}" for label, row in table.items()]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


class Cli(Workload):
    """A fixed mix of ``harmonicdisk`` commands on set-up documents.

    One item is one command, run in this process through ``cli.run_command``
    with its standard output captured.  The cold start a shell user pays on
    top is timed by the set-up (``import harmonicdisk.cli`` in a fresh
    interpreter) and by ``startup_probes``.  A record is ``(exit code,
    stdout, SVG bytes or None)``.
    """

    name = "cli"
    import_module = "harmonicdisk.cli"

    def __init__(self, seed: int, workdir: Path, src: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.env = child_env(src)
        self.probe_repeats = 1 if tiny else 7
        self.mix: list = []
        self.first_svg: bytes | None = None

    def build(self) -> None:
        w = self.workdir
        if w.exists():
            shutil.rmtree(w)
        (w / "out").mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        p = random_params(rng)
        hd.save_map(hd.random_member(p, rng), w / "member.json", params=p)
        hd.save_map(hd.random_member(p, rng), w / "member2.json", params=p)
        p110 = hd.ClassParams(1, 1, 0)
        failing = hd.HarmonicMap(hd.TruncatedSeries([0, 1, 0]), hd.TruncatedSeries([0, 0, 0.3]))
        hd.save_map(failing, w / "failing.json", params=p110)
        (w / "invalid.json").write_text('{"version": 1, "s_coeffs": "none"}\n', encoding="utf-8")
        params = ["--gamma", repr(p.gamma), "--delta", repr(p.delta), "--lambda", repr(p.lam)]
        member = str(w / "member.json")
        svg = str(w / "out" / "plot.svg")
        self.svg_path = Path(svg)
        self.mix = [
            ("extremal", ["extremal", *params, "--order", "64", "--out", str(w / "out" / "extremal.json")], 0),
            ("convolve", ["convolve", "--in", member, "--in", str(w / "member2.json"),
                          "--out", str(w / "out" / "conv.json")], 0),
            ("plot", ["plot", "--in", member, "--out", svg], 0),
            ("check", ["check", "--in", member], 0),
            ("report", ["report", "--in", member], 0),
            ("growth", ["growth", "--in", member], 0),
            ("oracle", ["oracle", "starlike", "--in", member], 0),
            ("radii", ["radii", *params], 0),
            ("failing", ["check", "--in", str(w / "failing.json"), "--grid-radius", "0.99"], 1),
            ("invalid", ["check", "--in", str(w / "invalid.json")], 2),
        ]

    def before_pass(self) -> None:
        # Overwriting a file just written can stall on the file system's
        # write-back (ext4 flushes on truncate-and-rewrite), so each pass
        # writes fresh files.
        for path in (self.workdir / "out").iterdir():
            path.unlink()

    def _record(self, label: str, code: int, stdout: str):
        return (code, stdout, self.svg_path.read_bytes() if label == "plot" else None)

    def items(self) -> list:
        from harmonicdisk import cli

        def runner(label, argv):
            def run():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run_command(argv)
                return self._record(label, code, out.getvalue())

            return run

        return [(label, runner(label, argv)) for label, argv, _ in self.mix]

    def check(self, label: str, record) -> str | None:
        code, stdout, svg = record
        expected = {lab: want for lab, _, want in self.mix}[label]
        if code != expected:
            return f"exit code {code}, expected {expected}"
        try:
            json.loads(stdout)
        except json.JSONDecodeError as e:
            return f"stdout is not JSON: {e}"
        if svg is not None:
            if self.first_svg is None:
                self.first_svg = svg
            elif svg != self.first_svg:
                return "SVG differs from the first rendering"
        return None

    def startup_probes(self) -> dict[str, float]:
        """Median cold start of a bare interpreter, and the extra cost of importing the CLI."""

        def probe_ms(code: str) -> float:
            t0 = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.workdir, check=True, timeout=120)
            return (time.perf_counter_ns() - t0) / 1e6

        pairs = [(probe_ms("pass"), probe_ms("import harmonicdisk.cli")) for _ in range(self.probe_repeats)]
        interp = statistics.median(bare for bare, _ in pairs)
        imported = statistics.median(full for _, full in pairs)
        return {"cli.interp_ms": interp, "cli.import_ms": imported - interp}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, out_dir: Path, src: Path, tiny: bool = False):
    if name == "corpus":
        return Corpus(seed, tiny)
    if name == "highorder":
        return HighOrder(seed, tiny)
    if name == "cli":
        return Cli(seed, out_dir / f"cli-{os.getpid()}", src, tiny)
    raise ValueError(f"unknown workload {name!r}")

