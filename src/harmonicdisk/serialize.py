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

Documents, and every result the CLI prints, are written by :func:`dumps`:
the text of ``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import IO, Any

import numpy as np

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


def _parse_coeffs(value: Any, path: str) -> np.ndarray:
    """The [re, im] pairs of *value* as a complex array.

    A list of two-element lists of floats and ints, the form that
    ``json.loads`` gives, is converted by one ``np.array`` call and checked
    by one ``isfinite``; numpy rounds an int as ``float`` does.  Anything
    else, an int beyond the double range or a non-finite value goes through
    :func:`_walk_coeffs`, which names the first offending entry.
    """
    if not isinstance(value, list):
        raise DocumentError(f"expected a list of [re, im] pairs, got {type(value).__name__}", path)
    if (
        set(map(type, value)) <= {list}
        and set(map(len, value)) <= {2}
        and set(map(type, chain.from_iterable(value))) <= {float, int}
    ):
        try:
            pairs = np.array(value, dtype=np.float64).reshape(-1, 2)
        except OverflowError:
            pairs = None
        if pairs is not None and np.isfinite(pairs).all():
            return pairs.view(np.complex128).reshape(-1)
    return np.array(_walk_coeffs(value, path), dtype=np.complex128)


def _walk_coeffs(value: list, path: str) -> list[complex]:
    """The pairs of *value* one by one, by the type rule of :func:`_parse_number`; a DocumentError names the entry."""
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
    if len(t_coeffs) < 2:
        t_coeffs = np.append(t_coeffs, np.zeros(2 - len(t_coeffs)))

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

    Floats are written by :func:`dumps` with shortest round-trip repr, so
    a load/save cycle is value-exact for doubles.
    """
    doc: dict[str, Any] = {"version": SCHEMA_VERSION}
    if params is not None:
        doc["params"] = _params_json(params)
    doc["s_coeffs"] = _pairs(f.s.coeffs)
    doc["t_coeffs"] = _pairs(f.t.coeffs)
    if meta is not None:
        doc["meta"] = dict(meta)
    return doc


def _pairs(coeffs: np.ndarray) -> list:
    """Complex coefficients as [re, im] lists of Python floats, every bit kept."""
    return np.stack((coeffs.real, coeffs.imag), axis=-1).tolist()


def dumps_document(doc: dict) -> str:
    """The text of a map document file: :func:`dumps` and a newline."""
    return dumps(doc) + "\n"


def dumps(obj: Any) -> str:
    """*obj* as ``json.dumps(obj, indent=2, allow_nan=False)`` writes it, byte for byte.

    The stdlib serves ``indent`` only from its pure-Python encoder, one
    generator step per value.  Here strings and keys are quoted by the
    stdlib's C ``encode_basestring_ascii``, numbers are written by
    ``float.__repr__`` and ``int.__repr__``, and a list of numbers or of
    [re, im] pairs is written whole, with no Python call per element
    (:func:`_list_body`).  A NaN or an infinity raises the stdlib's
    ValueError, and a value or key of a type it does not write the stdlib's
    TypeError.
    """
    return _encode(obj, "\n")


def _encode(obj: Any, newline: str) -> str:
    """*obj* at the depth whose lines start with *newline* (a newline and the indent)."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        return "[" + inner + _list_body(obj, inner) + newline + "]" if obj else "[]"
    if isinstance(obj, dict):
        items = [_key_text(k) + ": " + _encode(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _list_body(items, inner: str) -> str:
    """The items of a nonempty list, each starting a line at *inner*.

    A list of numbers or of [re, im] pairs of numbers has its numbers
    written by one ``map(repr, ...)``: ``repr`` of an exact int or float is
    its ``__repr__``.
    """
    sep = "," + inner
    texts = _number_texts(items)
    if texts is not None:
        return sep.join(texts)
    if set(map(type, items)) == {list} and set(map(len, items)) == {2}:
        deeper = inner + "  "
        texts = _number_texts(list(chain.from_iterable(items)))
        if texts is not None:
            pairs = map(("," + deeper).join, zip(texts, texts))
            return "[" + deeper + (inner + "]" + sep + "[" + deeper).join(pairs) + inner + "]"
    return sep.join([_encode(v, inner) for v in items])


def _number_texts(values: list):
    """``map(repr, values)`` if all are exact ints and floats, else None.

    A NaN or an infinity raises the stdlib's ValueError.  A finite sum
    clears every float; a sum that is not finite, or an int beyond the
    double range, may come from finite values, so each float is then tested.
    """
    if not set(map(type, values)) <= {float, int}:
        return None
    try:
        finite = math.isfinite(sum(values))
    except OverflowError:
        finite = False
    if not finite:
        for x in values:
            if isinstance(x, float):
                _float_text(x)
    return map(repr, values)


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError("Out of range float values are not JSON compliant: " + repr(x))


def _key_text(key: Any) -> str:
    """A dict key as the stdlib writes it: a string, or a number, bool or None in quotes."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + _encode(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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
    _write_text(dumps_document(map_to_document(f, params=params, meta=meta)), target)


def _write_text(text: str, target: str | os.PathLike | IO[str]) -> None:
    """Write *text* to a path, as UTF-8, or to a writable stream."""
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
