"""Command-line interface.

Every command prints one JSON result on stdout; ``--verbose`` adds a human
summary on stderr.  Exit codes: 0 when everything holds, 1 when any emitted
verdict fails, 2 on usage or validation errors, 3 on an internal fault (its
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback

from . import bounds, closure, geometry, membership, radii, serialize, svgplot
from .errors import HarmonicDiskError
from .maps import ClassParams, HarmonicMap, make_extremal_full, make_extremal_single, sense_preserving_check
from .sampling import MembershipVerdict, PolarGrid
from .radii import RadiusReport


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonicdisk",
        description="Construct, test and analyze planar harmonic mappings on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--gamma", type=float)
    params.add_argument("--delta", type=float)
    params.add_argument("--lambda", dest="lam", type=float)

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-radius", type=float, default=None)
    grid.add_argument("--grid-radii", type=int, default=None)
    grid.add_argument("--grid-angles", type=int, default=None)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="inputs", action="append", default=[])
    common.add_argument("--out", default=None)
    common.add_argument("--verbose", action="store_true")
    common.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("check", parents=[params, grid, common],
                       help="membership checks for a map document")
    p.add_argument("--n-eps", type=int, default=16)

    sub.add_parser("radii", parents=[params, common],
                   help="fully-convex and fully-starlike radii of the class")

    p = sub.add_parser("growth", parents=[params, grid, common],
                       help="growth envelope values, and the envelope check with --in")
    p.add_argument("--order", type=int, default=64)

    p = sub.add_parser("extremal", parents=[params, common],
                       help="construct a sharp extremal map document")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--order", type=int, default=None)

    sub.add_parser("convolve", parents=[common],
                   help="harmonic convolution of two map documents")

    p = sub.add_parser("oracle", parents=[grid, common],
                       help="bisection radius of a per-circle geometry property")
    p.add_argument("property", choices=("starlike", "convex"))

    p = sub.add_parser("plot", parents=[grid, common],
                       help="SVG of circle images of a map document")

    p = sub.add_parser("report", parents=[params, grid, common],
                       help="full diagnostic report for a map document")
    p.add_argument("--n-eps", type=int, default=16)

    return parser


# -- small converters --------------------------------------------------------


def _params_json(p: ClassParams) -> dict:
    return {"gamma": p.gamma, "delta": p.delta, "lambda": p.lam}


def _verdict_json(v: MembershipVerdict) -> dict:
    return {**dataclasses.asdict(v), "witness": [v.witness.real, v.witness.imag]}


def _radius_json(r: RadiusReport) -> dict:
    return dataclasses.asdict(r)


def _sufficient_json(s: membership.SufficientCondition) -> dict:
    # key is "satisfied", not "holds": failing the sufficient condition does
    # not disprove membership and must not drive the exit code.
    return {"satisfied": s.holds, "total": s.total, "budget": s.budget}


def _any_verdict_failed(obj) -> bool:
    if isinstance(obj, dict):
        if obj.get("holds") is False:
            return True
        return any(_any_verdict_failed(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_any_verdict_failed(v) for v in obj)
    return False


# -- argument resolution ------------------------------------------------------


def _resolve_params(args, doc_params: ClassParams | None) -> ClassParams:
    given = [args.gamma, args.delta, args.lam]
    if any(v is not None for v in given):
        if any(v is None for v in given):
            raise HarmonicDiskError("--gamma, --delta and --lambda must be given together")
        return ClassParams(gamma=args.gamma, delta=args.delta, lam=args.lam)
    if doc_params is not None:
        return doc_params
    raise HarmonicDiskError(
        "class parameters required: pass --gamma/--delta/--lambda or a document with params"
    )


def _grid_from_args(args, default_radius: float = 0.95) -> PolarGrid:
    return PolarGrid(
        max_radius=args.grid_radius if args.grid_radius is not None else default_radius,
        n_radii=args.grid_radii if args.grid_radii is not None else 24,
        n_angles=args.grid_angles if args.grid_angles is not None else 96,
    )


def _load_single(args) -> tuple[HarmonicMap, ClassParams | None, dict]:
    if len(args.inputs) != 1:
        raise HarmonicDiskError("exactly one --in document required")
    return serialize.load_map(args.inputs[0])


# -- command bodies -----------------------------------------------------------


def _cmd_check(args) -> dict:
    f, doc_params, _ = _load_single(args)
    p = _resolve_params(args, doc_params)
    grid = _grid_from_args(args)
    return {
        "params": _params_json(p),
        "sufficient": _sufficient_json(membership.membership_sufficient(f, p)),
        "sense_preserving": _verdict_json(sense_preserving_check(f, grid)),
        "membership": _verdict_json(membership.membership_sampled(f, p, grid)),
        "slices": _verdict_json(
            membership.slice_membership_sampled(f, p, n_eps=args.n_eps, grid=grid)
        ),
    }


def _cmd_radii(args) -> dict:
    doc_params = None
    if args.inputs:
        _, doc_params, _ = _load_single(args)
    p = _resolve_params(args, doc_params)
    tol = args.tol if args.tol is not None else 1e-9
    return {
        "params": _params_json(p),
        "fully_starlike": _radius_json(radii.radius_fully_starlike(p, tol)),
        "fully_convex": _radius_json(radii.radius_fully_convex(p, tol)),
    }


def _cmd_growth(args) -> dict:
    doc_params = None
    f = None
    if args.inputs:
        f, doc_params, _ = _load_single(args)
    p = _resolve_params(args, doc_params)
    r = args.grid_radius if args.grid_radius is not None else 0.5
    up = bounds.growth_upper(p, r, args.order)
    lo = bounds.growth_lower(p, r, args.order)
    result = {
        "params": _params_json(p),
        "r": r,
        "n_terms": args.order,
        "upper": {"value": up.value, "tail": up.tail},
        "lower": {"value": lo.value, "tail": lo.tail},
    }
    if f is not None:
        grid = _grid_from_args(args, default_radius=0.9)
        result["envelope"] = _verdict_json(bounds.growth_envelope_check(f, p, grid, args.order))
    return result


def _cmd_extremal(args) -> dict:
    p = _resolve_params(args, None)
    if args.m is not None:
        f = make_extremal_single(p, args.m, order=args.order)
    else:
        f = make_extremal_full(p, order=args.order if args.order is not None else 64)
    doc = serialize.map_to_document(f, params=p)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps_document(doc))
    return doc


def _cmd_convolve(args) -> dict:
    if len(args.inputs) != 2:
        raise HarmonicDiskError("convolve requires exactly two --in documents")
    f1, p1, _ = serialize.load_map(args.inputs[0])
    f2, p2, _ = serialize.load_map(args.inputs[1])
    g = closure.convolve_harmonic(f1, f2)
    params = p1 if (p1 is not None and p1 == p2) else None
    doc = serialize.map_to_document(g, params=params)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps_document(doc))
    return doc


def _cmd_oracle(args) -> dict:
    f, _, _ = _load_single(args)
    tol = args.tol if args.tol is not None else 1e-3
    n_theta = args.grid_angles if args.grid_angles is not None else 1024
    report = radii.numeric_radius_oracle(f, args.property, tol=tol, n_theta=n_theta)
    return {"property": args.property, "report": _radius_json(report)}


def _cmd_plot(args) -> dict:
    f, _, _ = _load_single(args)
    if not args.out:
        raise HarmonicDiskError("plot requires --out for the SVG file")
    r_max = args.grid_radius if args.grid_radius is not None else 0.75
    count = args.grid_radii if args.grid_radii is not None else 3
    n = args.grid_angles if args.grid_angles is not None else 256
    radii_list = [r_max * k / count for k in range(1, count + 1)]
    polylines = [geometry.circle_image(f, r, n) for r in radii_list]
    svgplot.emit_svg(polylines, args.out)
    return {"written": args.out, "radii": radii_list, "points_per_circle": n}


def _cmd_report(args) -> dict:
    f, doc_params, _ = _load_single(args)
    p = _resolve_params(args, doc_params)
    grid = _grid_from_args(args)
    tol = args.tol if args.tol is not None else 1e-9
    bound_report = bounds.coefficient_bound_check(f, p)
    return {
        "params": _params_json(p),
        "sufficient": _sufficient_json(membership.membership_sufficient(f, p)),
        "bounds": {
            "holds": bound_report.all_within,
            "rows": [dataclasses.asdict(r) for r in bound_report.rows],
        },
        "sense_preserving": _verdict_json(sense_preserving_check(f, grid)),
        "membership": _verdict_json(membership.membership_sampled(f, p, grid)),
        "slices": _verdict_json(
            membership.slice_membership_sampled(f, p, n_eps=args.n_eps, grid=grid)
        ),
        "growth_envelope": _verdict_json(bounds.growth_envelope_check(f, p, grid)),
        "fully_starlike": _radius_json(radii.radius_fully_starlike(p, tol)),
        "fully_convex": _radius_json(radii.radius_fully_convex(p, tol)),
    }


_COMMANDS = {
    "check": _cmd_check,
    "radii": _cmd_radii,
    "growth": _cmd_growth,
    "extremal": _cmd_extremal,
    "convolve": _cmd_convolve,
    "oracle": _cmd_oracle,
    "plot": _cmd_plot,
    "report": _cmd_report,
}


def _summarize(result: dict, out) -> None:
    for key, value in result.items():
        if isinstance(value, dict) and "holds" in value:
            state = "holds" if value["holds"] else "FAILS"
            margin = value.get("margin")
            detail = f" (margin {margin:.6g})" if isinstance(margin, float) else ""
            print(f"{key}: {state}{detail}", file=out)
        elif isinstance(value, dict) and "radius" in value:
            print(f"{key}: radius {value['radius']:.9g}", file=out)


def run_command(argv: list[str]) -> int:
    """Parse and execute one CLI invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        result = _COMMANDS[args.command](args)
    except (HarmonicDiskError, ValueError, OSError) as e:
        print(json.dumps({"error": str(e)}, indent=2))
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - any other failure is a bug, not bad input
        print(json.dumps({"error": f"internal error: {type(e).__name__}: {e}"}, indent=2))
        traceback.print_exc()
        return 3
    print(json.dumps(result, indent=2))
    if getattr(args, "verbose", False):
        _summarize(result, sys.stderr)
    return 1 if _any_verdict_failed(result) else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
