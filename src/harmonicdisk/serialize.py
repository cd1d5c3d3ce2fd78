"""JSON map documents: load, validate, save.

Schema (version 1):

    {
      "version": 1,
      "params": {"gamma": g, "delta": d, "lambda": l},   # optional
      "s_coeffs": [[re, im], ...],
      "t_coeffs": [[re, im], ...],
      "meta": {"key": "value", ...}                      # optional
    }

Coefficients are [re, im] pairs to avoid locale and formatting ambiguity.
Schema violations raise :class:`DocumentError` carrying the offending field
path; normalization violations raise :class:`NormalizationError` naming the
offending coefficient.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any

from .errors import DocumentError, DomainError, _as_real
from .maps import ClassParams, HarmonicMap
from .series import TruncatedSeries

SCHEMA_VERSION = 1


def _require_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"expected an object, got {type(value).__name__}", path)
    return value


def _parse_number(value: Any, path: str) -> float:
    try:
        return _as_real(value, "value")
    except DomainError as e:
        raise DocumentError(str(e), path) from None


def _parse_coeffs(value: Any, path: str) -> list[complex]:
    if not isinstance(value, list):
        raise DocumentError(f"expected a list of [re, im] pairs, got {type(value).__name__}", path)
    out = []
    for i, pair in enumerate(value):
        here = f"{path}[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError("expected a [re, im] pair of numbers", here)
        out.append(complex(*(_parse_number(x, here) for x in pair)))
    return out


class _ParamsError(DocumentError, DomainError):
    """Numbers that break the class's ordering: a DocumentError naming ``params``, still a DomainError."""


def _parse_params(value: Any, path: str) -> ClassParams:
    obj = _require_dict(value, path)
    vals = {}
    for key in ("gamma", "delta", "lambda"):
        if key not in obj:
            raise DocumentError(f"missing required key {key!r}", path)
        vals[key] = _parse_number(obj[key], f"{path}.{key}")
    try:
        return ClassParams(gamma=vals["gamma"], delta=vals["delta"], lam=vals["lambda"])
    except DomainError as e:
        raise _ParamsError(str(e), path) from None


def document_to_map(doc: Any) -> tuple[HarmonicMap, ClassParams | None, dict]:
    """Validate a parsed document and build the domain objects."""
    obj = _require_dict(doc, "")
    if "version" not in obj:
        raise DocumentError("missing required key 'version'", "")
    if obj["version"] != SCHEMA_VERSION:
        raise DocumentError(f"unsupported version {obj['version']!r}", "version")
    for key in ("s_coeffs", "t_coeffs"):
        if key not in obj:
            raise DocumentError(f"missing required key {key!r}", "")

    s_coeffs = _parse_coeffs(obj["s_coeffs"], "s_coeffs")
    t_coeffs = _parse_coeffs(obj["t_coeffs"], "t_coeffs")
    if len(s_coeffs) < 2:
        raise DocumentError("analytic part needs at least the coefficients of 1 and z", "s_coeffs")
    while len(t_coeffs) < 2:
        t_coeffs.append(0j)

    params = _parse_params(obj["params"], "params") if obj.get("params") is not None else None

    meta = {}
    if obj.get("meta") is not None:
        meta_obj = _require_dict(obj["meta"], "meta")
        for k, v in meta_obj.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise DocumentError("meta must map strings to strings", f"meta.{k}")
            meta[k] = v

    # NormalizationError from the map constructor names the offending coefficient.
    f = HarmonicMap(TruncatedSeries(s_coeffs), TruncatedSeries(t_coeffs))
    return f, params, meta


def _params_json(params: ClassParams) -> dict:
    """The ``params`` object of a document."""
    return {"gamma": params.gamma, "delta": params.delta, "lambda": params.lam}


def map_to_document(
    f: HarmonicMap, params: ClassParams | None = None, meta: dict | None = None
) -> dict:
    """Build the JSON-ready document for a map.

    Floats pass through :func:`json.dump` with shortest round-trip repr, so
    a load/save cycle is value-exact for doubles.
    """
    doc: dict[str, Any] = {"version": SCHEMA_VERSION}
    if params is not None:
        doc["params"] = _params_json(params)
    doc["s_coeffs"] = [[c.real, c.imag] for c in (complex(x) for x in f.s.coeffs)]
    doc["t_coeffs"] = [[c.real, c.imag] for c in (complex(x) for x in f.t.coeffs)]
    if meta is not None:
        doc["meta"] = dict(meta)
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_map(source: str | os.PathLike | IO[str]) -> tuple[HarmonicMap, ClassParams | None, dict]:
    """Load a map document from a path or a readable stream of UTF-8 JSON."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise DocumentError(f"invalid JSON: {e}") from e
    return document_to_map(doc)


def save_map(
    f: HarmonicMap,
    target: str | os.PathLike | IO[str],
    params: ClassParams | None = None,
    meta: dict | None = None,
) -> None:
    """Write a map document to a path or a writable stream."""
    text = dumps_document(map_to_document(f, params=params, meta=meta))
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
