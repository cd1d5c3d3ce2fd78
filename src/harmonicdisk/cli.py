"""Command-line interface.

Every command prints one JSON result on stdout, in the bytes of
``json.dumps(result, indent=2)`` (:func:`~harmonicdisk.serialize.dumps`);
``extremal`` and ``convolve`` print the map document that ``--out`` writes.
``--verbose`` adds a human summary on stderr.  Exit codes: 0 when everything holds, 1 when any emitted
verdict fails, 2 on usage or validation errors, 3 on an internal fault, an
``InternalConsistencyError`` included (its traceback goes to stderr).  The
output is strict JSON: a result that holds a NaN or an infinity is an
internal fault.  A reader that closes stdout early does not change the exit
code.

Each command takes exactly the flags its body reads (``_COMMAND_FLAGS``),
by their full names; any other flag, or an abbreviation, is a usage error.
An omitted flag takes the library's default, so the CLI passes on only the
values it was given.  Three defaults belong to the CLI itself: the growth
radius 0.5, the envelope grid radius 0.9, and the plot's 3 circles up to
radius 0.75.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import operator
import os
import sys
import traceback

from . import bounds, closure, geometry, membership, radii, serialize, svgplot
from .errors import HarmonicDiskError, InternalConsistencyError
from .maps import ClassParams, HarmonicMap, make_extremal_full, make_extremal_single, sense_preserving_check
from .sampling import MembershipVerdict, PolarGrid

#: argparse settings of every flag.  An omitted flag parses to None (``--in``
#: to an empty list), which the command bodies leave to the library.
_FLAGS = {
    "--gamma": {"type": float},
    "--delta": {"type": float},
    "--lambda": {"dest": "lam", "type": float},
    "--grid-radius": {"type": float},
    "--grid-radii": {"type": int},
    "--grid-angles": {"type": int},
    "--in": {"dest": "inputs", "action": "append", "default": []},
    "--out": {},
    "--verbose": {"action": "store_true"},
    "--tol": {"type": float},
    "--n-eps": {"type": int},
    "--order": {"type": int},
    "--m": {"type": int},
    "property": {"choices": ("starlike", "convex")},
}

_PARAMS = ("--gamma", "--delta", "--lambda")
_GRID = ("--grid-radius", "--grid-radii", "--grid-angles")

#: Per command: its help line and the flags its body reads (``--verbose``,
#: which ``run_command`` reads, is added to every command).
_COMMAND_FLAGS = {
    "check": ("membership checks for a map document", (*_PARAMS, *_GRID, "--in", "--n-eps")),
    "radii": ("fully-convex and fully-starlike radii of the class", (*_PARAMS, "--in", "--tol")),
    "growth": ("growth envelope values, and the envelope check with --in",
               (*_PARAMS, *_GRID, "--in", "--order")),
    "extremal": ("construct a sharp extremal map document", (*_PARAMS, "--out", "--m", "--order")),
    "convolve": ("harmonic convolution of two map documents", ("--in", "--out")),
    "oracle": ("bisection radius of a per-circle geometry property",
               ("--grid-angles", "--in", "--tol", "property")),
    "plot": ("SVG of circle images of a map document", (*_GRID, "--in", "--out")),
    "report": ("full diagnostic report for a map document",
               (*_PARAMS, *_GRID, "--in", "--tol", "--n-eps")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="harmonicdisk",
        description="Construct, test and analyze planar harmonic mappings on the unit disk.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMAND_FLAGS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in (*flags, "--verbose"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


# -- small converters --------------------------------------------------------


@functools.cache
def _field_getter(cls) -> tuple[tuple[str, ...], operator.attrgetter]:
    names = tuple(field.name for field in dataclasses.fields(cls))
    return names, operator.attrgetter(*names)


def _fields_json(result) -> dict:
    """The fields of a result dataclass as a ``{field: value}`` dict, with no copy of the values.

    Every result here holds numbers, strings and tuples of numbers, so this
    prints as ``dataclasses.asdict`` did, without its deep copy.
    """
    names, get = _field_getter(type(result))
    return dict(zip(names, get(result)))


def _verdict_json(v: MembershipVerdict) -> dict:
    return {**_fields_json(v), "witness": [v.witness.real, v.witness.imag]}


def _sufficient_json(s: membership.SufficientCondition) -> dict:
    # key is "satisfied", not "holds": failing the sufficient condition does
    # not disprove membership and must not drive the exit code.
    return {"satisfied": s.holds, "total": s.total, "budget": s.budget}


def _any_verdict_failed(result: dict) -> bool:
    """Whether an entry of *result* is a failing verdict; every command puts its verdicts at the top level."""
    return any(isinstance(v, dict) and v.get("holds") is False for v in result.values())


# -- argument resolution ------------------------------------------------------


def _given(**kwargs) -> dict:
    """The keyword arguments whose flag was given; the others keep the library default."""
    return {k: v for k, v in kwargs.items() if v is not None}


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


def _grid_from_args(args, **defaults) -> PolarGrid:
    given = _given(max_radius=args.grid_radius, n_radii=args.grid_radii, n_angles=args.grid_angles)
    return PolarGrid(**{**defaults, **given})


def _load_single(args) -> tuple[HarmonicMap, ClassParams | None, dict]:
    if len(args.inputs) != 1:
        raise HarmonicDiskError("exactly one --in document required")
    return serialize.load_map(args.inputs[0])


def _map_and_params(args, required: bool = True) -> tuple[HarmonicMap | None, ClassParams]:
    """The ``--in`` map (None when optional and absent) and the resolved class parameters."""
    f = doc_params = None
    if required or args.inputs:
        f, doc_params, _ = _load_single(args)
    return f, _resolve_params(args, doc_params)


# -- command bodies -----------------------------------------------------------


def _check_entries(args, f: HarmonicMap, p: ClassParams, grid: PolarGrid) -> dict:
    """The result of ``check``, which ``report`` extends."""
    return {
        "params": serialize._params_json(p),
        "sufficient": _sufficient_json(membership.membership_sufficient(f, p)),
        "sense_preserving": _verdict_json(sense_preserving_check(f, grid)),
        "membership": _verdict_json(membership.membership_sampled(f, p, grid)),
        "slices": _verdict_json(
            membership.slice_membership_sampled(f, p, grid=grid, **_given(n_eps=args.n_eps))
        ),
    }


def _radii_entries(args, p: ClassParams) -> dict:
    tol = _given(tol=args.tol)
    return {
        "fully_starlike": _fields_json(radii.radius_fully_starlike(p, **tol)),
        "fully_convex": _fields_json(radii.radius_fully_convex(p, **tol)),
    }


def _cmd_check(args) -> dict:
    f, p = _map_and_params(args)
    return _check_entries(args, f, p, _grid_from_args(args))


def _cmd_radii(args) -> dict:
    _, p = _map_and_params(args, required=False)
    return {"params": serialize._params_json(p), **_radii_entries(args, p)}


def _cmd_growth(args) -> dict:
    f, p = _map_and_params(args, required=False)
    r = args.grid_radius if args.grid_radius is not None else 0.5
    n_terms = _given(n_terms=args.order)
    up = bounds.growth_upper(p, r, **n_terms)
    lo = bounds.growth_lower(p, r, **n_terms)
    result = {
        "params": serialize._params_json(p),
        "r": r,
        "n_terms": up.n_terms,
        "upper": {"value": up.value, "tail": up.tail},
        "lower": {"value": lo.value, "tail": lo.tail},
    }
    if f is not None:
        grid = _grid_from_args(args, max_radius=0.9)
        result["envelope"] = _verdict_json(bounds.growth_envelope_check(f, p, grid, **n_terms))
    return result


def _document_text(args, f: HarmonicMap, params: ClassParams | None) -> str:
    """The map document of *f*, encoded once: written to ``--out`` when given, and printed."""
    text = serialize.dumps_document(serialize.map_to_document(f, params=params))
    if args.out:
        serialize._write_text(text, args.out)
    return text


def _cmd_extremal(args) -> str:
    p = _resolve_params(args, None)
    order = _given(order=args.order)
    if args.m is not None:
        f = make_extremal_single(p, args.m, **order)
    else:
        f = make_extremal_full(p, **order)
    return _document_text(args, f, p)


def _cmd_convolve(args) -> str:
    if len(args.inputs) != 2:
        raise HarmonicDiskError("convolve requires exactly two --in documents")
    f1, p1, _ = serialize.load_map(args.inputs[0])
    f2, p2, _ = serialize.load_map(args.inputs[1])
    g = closure.convolve_harmonic(f1, f2)
    return _document_text(args, g, p1 if p1 == p2 else None)


def _cmd_oracle(args) -> dict:
    f, _, _ = _load_single(args)
    report = radii.numeric_radius_oracle(
        f, args.property, **_given(tol=args.tol, n_theta=args.grid_angles)
    )
    return {"property": args.property, "report": _fields_json(report)}


def _cmd_plot(args) -> dict:
    f, _, _ = _load_single(args)
    if not args.out:
        raise HarmonicDiskError("plot requires --out for the SVG file")
    r_max = args.grid_radius if args.grid_radius is not None else 0.75
    count = args.grid_radii if args.grid_radii is not None else 3
    radii_list = [r_max * k / count for k in range(1, count + 1)]
    polylines = [geometry.circle_image(f, r, **_given(n=args.grid_angles)) for r in radii_list]
    svgplot.emit_svg(polylines, args.out)
    return {"written": args.out, "radii": radii_list, "points_per_circle": polylines[0].n}


def _cmd_report(args) -> dict:
    f, p = _map_and_params(args)
    grid = _grid_from_args(args)
    checks = _check_entries(args, f, p, grid)
    bound_report = bounds.coefficient_bound_check(f, p)
    return {
        # the bounds go between check's first two entries and the rest
        "params": checks.pop("params"),
        "sufficient": checks.pop("sufficient"),
        "bounds": {
            "holds": bound_report.all_within,
            "rows": [_fields_json(r) for r in bound_report.rows],
        },
        **checks,
        "growth_envelope": _verdict_json(bounds.growth_envelope_check(f, p, grid)),
        **_radii_entries(args, p),
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


def _print_json(obj) -> None:
    """*obj* as strict JSON on stdout; a NaN or an infinity raises ValueError before anything is printed.

    A string is a map document that its command has already encoded.
    """
    text = obj if isinstance(obj, str) else serialize.dumps(obj) + "\n"
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        pass  # the reader closed stdout early; the exit code still reports the result


def run_command(argv: list[str]) -> int:
    """Parse and execute one CLI invocation; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        try:
            result = _COMMANDS[args.command](args)
        except InternalConsistencyError:
            raise  # a guaranteed precondition failed: a fault, not bad input
        except (HarmonicDiskError, ValueError, OSError) as e:
            _print_json({"error": str(e)})
            print(f"error: {e}", file=sys.stderr)
            return 2
        _print_json(result)  # a result holding a non-finite number is a fault
    except Exception as e:  # noqa: BLE001 - any other failure is a bug, not bad input
        _print_json({"error": f"internal error: {type(e).__name__}: {e}"})
        traceback.print_exc()
        return 3
    if isinstance(result, str):
        return 0  # a map document holds no verdict
    if args.verbose:
        _summarize(result, sys.stderr)
    return 1 if _any_verdict_failed(result) else 0


def main() -> None:
    code = run_command(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is closed: send what is left to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    sys.exit(main())
