import io
import json

import pytest

from harmonicdisk import (
    ClassParams,
    DocumentError,
    DomainError,
    NormalizationError,
    load_map,
    make_extremal_single,
    map_to_document,
    save_map,
)
from harmonicdisk.serialize import document_to_map, dumps_document

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
