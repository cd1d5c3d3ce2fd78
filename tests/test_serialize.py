import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicdisk import (
    ClassParams,
    DocumentError,
    DomainError,
    NormalizationError,
    load_map,
    make_extremal_full,
    make_extremal_single,
    map_to_document,
    save_map,
)
from harmonicdisk.cli import run_command
from harmonicdisk.serialize import document_to_map, dumps, dumps_document

P110 = ClassParams(1, 1, 0)


def valid_doc(**overrides):
    doc = {
        "version": 1,
        "params": {"gamma": 1.0, "delta": 1.0, "lambda": 0.0},
        "s_coeffs": [[0.0, 0.0], [1.0, 0.0], [0.1, -0.2]],
        "t_coeffs": [[0.0, 0.0], [0.0, 0.0], [0.25, 0.0]],
        "meta": {"note": "fixture"},
    }
    doc.update(overrides)
    return doc


class TestLoad:
    def test_valid_document(self):
        f, p, meta = document_to_map(valid_doc())
        assert p == P110
        assert f.s.coeff(2) == 0.1 - 0.2j
        assert f.t.coeff(2) == 0.25
        assert meta == {"note": "fixture"}

    def test_empty_t_is_identity_coanalytic_part(self):
        f, p, meta = document_to_map(
            {"version": 1, "s_coeffs": [[0, 0], [1, 0]], "t_coeffs": []}
        )
        assert p is None and meta == {}
        assert f.evaluate(0.2 + 0.1j) == pytest.approx(0.2 + 0.1j)

    def test_stream_round_trip(self):
        f = make_extremal_single(P110, 2, order=3)
        buf = io.StringIO()
        save_map(f, buf, params=P110)
        buf.seek(0)
        g, p, _ = load_map(buf)
        assert p == P110
        assert g.t.coeff(2) == 0.25

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "map.json"
        f = make_extremal_single(P110, 2, order=3)
        save_map(f, path, params=P110, meta={"k": "v"})
        g, p, meta = load_map(path)
        assert g.t.coeff(2) == 0.25 and meta == {"k": "v"}

    def test_save_after_load_is_field_identical(self):
        doc = valid_doc()
        f, p, meta = document_to_map(doc)
        assert map_to_document(f, params=p, meta=meta) == doc

    def test_dumps_parses_back(self):
        doc = valid_doc()
        assert json.loads(dumps_document(doc)) == doc


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.pop("version"), ""),
            (lambda d: d.update(version=2), "version"),
            (lambda d: d.pop("s_coeffs"), ""),
            (lambda d: d.update(s_coeffs="zap"), "s_coeffs"),
            (lambda d: d.update(s_coeffs=[[0, 0], [1]]), "s_coeffs[1]"),
            (lambda d: d.update(t_coeffs=[[0, 0], [0, "x"]]), "t_coeffs[1]"),
            (lambda d: d.update(s_coeffs=[[0, 0], [1, float("inf")]]), "s_coeffs[1]"),
            (lambda d: d.update(params={"gamma": 1, "delta": 1}), "params"),
            (lambda d: d.update(params={"gamma": 1, "delta": 1, "lambda": "x"}), "params.lambda"),
            # integers beyond the double range used to escape as OverflowError
            (lambda d: d["s_coeffs"].append([10**400, 0]), "s_coeffs[3]"),
            (lambda d: d["t_coeffs"].append([0, -(10**400)]), "t_coeffs[3]"),
            (lambda d: d["params"].update(gamma=10**400), "params.gamma"),
            (lambda d: d["params"].update(delta=True), "params.delta"),
            (lambda d: d.update(meta={"a": 3}), "meta.a"),
        ],
    )
    def test_violation_carries_field_path(self, mutate, path):
        doc = valid_doc()
        mutate(doc)
        with pytest.raises(DocumentError) as err:
            document_to_map(doc)
        assert err.value.path == path

    def test_non_object_rejected(self):
        with pytest.raises(DocumentError):
            document_to_map([1, 2, 3])

    def test_invalid_json_stream(self):
        with pytest.raises(DocumentError):
            load_map(io.StringIO("{not json"))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        text = json.dumps(valid_doc(meta={"note": "caf\u00e9"}), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DocumentError, match="invalid JSON"):
            load_map(path)

    def test_nesting_beyond_the_parser_depth(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            load_map(io.StringIO("[" * 100_000))

    def test_non_utf8_stream(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            load_map(io.TextIOWrapper(io.BytesIO(b'{"version": 1, "meta": "\xff"}'), encoding="utf-8"))

    def test_short_analytic_part(self):
        with pytest.raises(DocumentError):
            document_to_map({"version": 1, "s_coeffs": [[0, 0]], "t_coeffs": []})


class TestValidationErrors:
    def test_bad_slope_names_coefficient(self):
        doc = valid_doc(s_coeffs=[[0, 0], [0.9, 0]], t_coeffs=[])
        with pytest.raises(NormalizationError, match=r"s'\(0\) must be 1"):
            document_to_map(doc)

    def test_param_ordering_violation(self):
        doc = valid_doc(params={"gamma": 1.0, "delta": 0.5, "lambda": 0.0})
        with pytest.raises(DomainError, match="gamma <= delta"):
            document_to_map(doc)

    def test_lambda_bound_violation(self):
        doc = valid_doc(params={"gamma": 1.0, "delta": 1.0, "lambda": 1.0})
        with pytest.raises(DomainError, match="lambda < gamma"):
            document_to_map(doc)

    @pytest.mark.parametrize(
        "params",
        [{"gamma": 1, "delta": 0.5, "lambda": 0}, {"gamma": 1, "delta": 1, "lambda": 1}],
    )
    def test_params_violation_names_params(self, params):
        # the numbers parse, their ordering does not hold: still the
        # document's fault, so a DocumentError with the field path
        with pytest.raises(DocumentError) as err:
            document_to_map(valid_doc(params=params))
        assert err.value.path == "params"
        assert str(err.value).startswith("params: ")


class TestDocumentShape:
    def test_optional_fields_omitted(self):
        f = make_extremal_single(P110, 2, order=2)
        doc = map_to_document(f)
        assert "params" not in doc and "meta" not in doc
        assert doc["version"] == 1

    def test_coefficients_are_pairs(self):
        f = make_extremal_single(P110, 2, order=2)
        doc = map_to_document(f)
        assert doc["s_coeffs"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        assert doc["t_coeffs"] == [[0.0, 0.0], [0.0, 0.0], [0.25, 0.0]]


def test_truncated_series_exposed_roundtrip():
    # float repr round-trips exactly through JSON
    values = [0.1, 1 / 3, 2 / 7, 1e-17 + 0.25]
    f_doc = {
        "version": 1,
        "s_coeffs": [[0.0, 0.0], [1.0, 0.0]] + [[v, -v] for v in values],
        "t_coeffs": [],
    }
    f, _, _ = document_to_map(f_doc)
    out = map_to_document(f)
    assert json.loads(json.dumps(out)) == out
    assert out["s_coeffs"][2:] == [[v, -v] for v in values]


# -- the JSON writer ----------------------------------------------------------

_EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**400), 10**400),
    st.sampled_from(_EDGE_FLOATS),
)
_keys = st.one_of(st.text(), st.sampled_from(["%", "%s", "%%r", "\x00 ", "café"]))
_any_keys = st.one_of(_keys, st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.none())
# dicts of numbers with one key set: the shape of the report's bound rows
_rows = st.lists(_keys, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: _numbers for k in keys}), max_size=4)
)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _numbers, st.text()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_any_keys, children, max_size=4),
        st.lists(_numbers, max_size=6),
        st.lists(st.lists(_numbers, min_size=2, max_size=2), max_size=4),
        _rows,
    ),
    max_leaves=40,
)


class TestWriter:
    """``serialize.dumps`` writes the bytes of ``json.dumps(obj, indent=2, allow_nan=False)``."""

    @settings(max_examples=400, deadline=None)
    @given(_json_values)
    def test_equals_the_stdlib(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2, allow_nan=False)

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            [[]],
            {"a": {}},
            "\x00\x1f\x7fé \U0001f600",
            {"é\n": ["\t", "\\", '"']},
            [-0.0, 5e-324, 1.7976931348623157e308],
            [1.7976931348623157e308, 1.7976931348623157e308],  # finite values whose sum overflows
            [[10**400, -0.0], [1, 2.5]],
            [{"m": 10**400, "x": 0.5}, {"m": 2, "x": -0.0}],
            [{"a": 1}, {"b": 1}],
            [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
            [{}, {}],
            [True, False, None, 1, 1.5],
            [[True, 0.5], [None, 1.0]],
            [[0.5, 1.0], [0.5]],
            (0.5, (1.0, -0.0)),
            {1: "int", 2.5: "float", True: "bool", None: "none"},
            [np.float64(0.1), np.float64(-0.0)],
            {"v": np.float64(1e-300)},
            10**400,
        ],
    )
    def test_edge_cases(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2, allow_nan=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "place",
        [
            lambda x: x,
            lambda x: [0.5, x, 1.0],
            lambda x: [[0.5, 0.0], [0.0, x]],
            lambda x: [{"m": 2, "v": 0.5}, {"m": 3, "v": x}],
            lambda x: [10**400, x],
            lambda x: {"a": [1, "s", x]},
            lambda x: {x: 1},
            lambda x: [np.float64(x)],
        ],
    )
    def test_non_finite_raises_the_stdlib_error(self, bad, place):
        prefix = "Out of range float values are not JSON compliant"
        obj = place(bad)
        with pytest.raises(ValueError) as stdlib:
            json.dumps(obj, indent=2, allow_nan=False)
        with pytest.raises(ValueError) as ours:
            dumps(obj)
        assert str(stdlib.value).startswith(prefix) and str(ours.value).startswith(prefix)

    @pytest.mark.parametrize(
        "obj", [1j, [0.5, 1j], {"a": {1, 2}}, [np.int64(3)], [np.bool_(True)], {(1, 2): 0.5}, [[0.5, 1j]]]
    )
    def test_unwritable_values_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, allow_nan=False)
        with pytest.raises(TypeError):
            dumps(obj)

    def test_documents_of_high_order(self):
        for order in (2, 64, 4096):
            doc = map_to_document(make_extremal_full(ClassParams(0.7, 1.3, 0.1), order), params=P110)
            assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n"


# -- bad documents -------------------------------------------------------------

_S = "[[0, 0], [1, 0], %s]"
_T = "[[0, 0], [0, 0], %s]"


def _doc_text(s=_S % "[0.1, 0]", t=_T % "[0.25, 0]") -> str:
    return '{"version": 1, "s_coeffs": %s, "t_coeffs": %s}' % (s, t)


_FINITE = "value must be a finite real number, got "
_PAIR = "expected a [re, im] pair of numbers"
_SHORT = "analytic part needs at least the coefficients of 1 and z"

#: (document text, path, message): the errors that the per-entry walk has always given
BAD_DOCUMENTS = {
    "bool": (_doc_text(s=_S % "[true, 0]"), "s_coeffs[2]", _FINITE + "True"),
    "string": (_doc_text(t=_T % '["0.5", 0]'), "t_coeffs[2]", _FINITE + "'0.5'"),
    "NaN": (_doc_text(s=_S % "[NaN, 0]"), "s_coeffs[2]", _FINITE + "nan"),
    "Infinity": (_doc_text(s=_S % "[0, Infinity]"), "s_coeffs[2]", _FINITE + "inf"),
    "-Infinity": (_doc_text(t=_T % "[-Infinity, 0]"), "t_coeffs[2]", _FINITE + "-inf"),
    "10**400": (_doc_text(s=_S % f"[{10**400}, 0]"), "s_coeffs[2]", _FINITE + str(10**400)),
    "pair of length 1": (_doc_text(s=_S % "[0.5]"), "s_coeffs[2]", _PAIR),
    "pair of length 3": (_doc_text(s=_S % "[0.5, 0, 0]"), "s_coeffs[2]", _PAIR),
    "pair is a number": (_doc_text(s=_S % "0.5"), "s_coeffs[2]", _PAIR),
    "pair is an object": (_doc_text(t=_T % '{"re": 0.5, "im": 0}'), "t_coeffs[2]", _PAIR),
    "s_coeffs a string": (_doc_text(s='"zap"'), "s_coeffs", "expected a list of [re, im] pairs, got str"),
    "s_coeffs an object": (_doc_text(s='{"0": [0, 0]}'), "s_coeffs", "expected a list of [re, im] pairs, got dict"),
    "t_coeffs null": (_doc_text(t="null"), "t_coeffs", "expected a list of [re, im] pairs, got NoneType"),
    "short s_coeffs": (_doc_text(s="[[0, 0]]"), "s_coeffs", _SHORT),
    "empty s_coeffs": (_doc_text(s="[]"), "s_coeffs", _SHORT),
    "first of two bad entries": (_doc_text(s='[[0, 0], [1, NaN], ["x", 0]]'), "s_coeffs[1]", _FINITE + "nan"),
    "s before t": (_doc_text(s=_S % "[true, 0]", t=_T % "[NaN, 0]"), "s_coeffs[2]", _FINITE + "True"),
    "t before the length of s": (_doc_text(s="[[0, 0]]", t=_T % "[NaN, 0]"), "t_coeffs[2]", _FINITE + "nan"),
}


class TestBadDocuments:
    """Every bad coefficient list is named as the per-entry walk names it, whatever path converts the good ones."""

    @pytest.mark.parametrize("name", list(BAD_DOCUMENTS))
    def test_message_and_path(self, name):
        text, path, message = BAD_DOCUMENTS[name]
        with pytest.raises(DocumentError) as err:
            load_map(io.StringIO(text))
        assert err.value.path == path
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name", list(BAD_DOCUMENTS))
    def test_cli_exits_two(self, name, tmp_path, capsys):
        text, path, message = BAD_DOCUMENTS[name]
        doc = tmp_path / "bad.json"
        doc.write_text(text, encoding="utf-8")
        assert run_command(["check", "--in", str(doc), "--gamma", "1", "--delta", "1", "--lambda", "0"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": f"{path}: {message}"}

    def test_int_pairs_load(self):
        big = 2**60 + 1  # rounds to a double as float() rounds it
        f, _, _ = document_to_map(
            {"version": 1, "s_coeffs": [[0, 0], [1, 0], [2, -3], [big, 0]], "t_coeffs": [[0, 0], [0, 0], [0, 1]]}
        )
        assert f.s.coeffs.tolist() == [0j, 1 + 0j, 2 - 3j, complex(float(big), 0.0)]
        assert f.t.coeffs.tolist() == [0j, 0j, 1j]

    def test_bits_and_read_only_arrays(self):
        f, _, _ = document_to_map(
            {"version": 1, "s_coeffs": [[-0.0, 0.0], [1, -0.0], [5e-324, -1.5]], "t_coeffs": [[0.0, -0.0]]}
        )
        assert f.s.coeffs.view(np.float64).tolist() == [-0.0, 0.0, 1.0, -0.0, 5e-324, -1.5]
        assert [math.copysign(1, x) for x in f.s.coeffs.view(np.float64)[:4]] == [-1, 1, 1, -1]
        assert [math.copysign(1, x) for x in f.t.coeffs.view(np.float64)] == [1, -1, 1, 1]
        assert not f.s.coeffs.flags.writeable and f.t.order == 1

    def test_other_real_types_still_load(self):
        # numpy floats and Fractions are not what json.loads gives; the walk converts them
        f, _, _ = document_to_map(
            {"version": 1, "s_coeffs": [[0, 0], [np.float64(1.0), 0], [Fraction(1, 4), np.int32(0)]], "t_coeffs": []}
        )
        assert f.s.coeffs.tolist() == [0j, 1 + 0j, 0.25 + 0j]
