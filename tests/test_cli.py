import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_gl, random_spd

import lie3geo
from lie3geo import algebra, cli, foliation
from lie3geo.algebra import (
    StructureConstants,
    catalog,
    change_basis,
    constants_from_brackets,
    orthonormalize,
)
from lie3geo.foliation import search_directions


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="alg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "verify-paper" in out


def test_missing_command_exits_one(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert "command" in err


def test_invalid_command_exits_one(capsys):
    code, _, err = run(capsys, ["nosuchcmd"])
    assert code == 1
    assert "invalid choice" in err


def test_classify_requires_source(capsys):
    code, _, err = run(capsys, ["classify"])
    assert code == 1
    assert "--input --group" in err


def test_missing_input_file_exits_one(capsys):
    code, _, err = run(capsys, ["classify", "--input", "/no/such/file.json"])
    assert code == 1
    assert "error:" in err


def test_verify_failure_exits_two(capsys, monkeypatch):
    report = {
        "sections": [{"name": "stub", "status": "FAIL", "checks": []}],
        "overall": "FAIL",
        "samples": 0,
        "seed": 42,
        "lattice": 20000,
    }
    monkeypatch.setattr(cli, "run_verification", lambda **kw: (report, False))
    code, out, _ = run(capsys, ["verify-paper"])
    assert code == 2
    assert "overall: FAIL" in out


# ------------------------------------------------------------ catalog access


def test_catalog_lists_nine_entries(capsys):
    code, out, _ = run(capsys, ["--json", "catalog"])
    assert code == 0
    doc = json.loads(out)
    names = [e["name"] for e in doc["entries"]]
    assert names == ["R3", "Nil3", "H2xR", "G4", "H3", "Sol3", "G7", "SL2R~", "SU2"]


def test_catalog_human_output(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == 0
    assert "9 built-in groups" in out
    assert "alpha > 0" in out


def test_alpha_validation(capsys):
    code, _, err = run(capsys, ["classify", "--group", "Sol3"])
    assert code == 1 and "alpha" in err
    code, _, err = run(capsys, ["classify", "--group", "Nil3", "--alpha", "2"])
    assert code == 1 and "no alpha" in err
    code, _, err = run(capsys, ["classify", "--group", "Sol3", "--alpha", "-1"])
    assert code == 1 and "alpha" in err
    code, _, err = run(capsys, ["classify", "--group", "NoSuch"])
    assert code == 1 and "unknown catalog group" in err


# ----------------------------------------------------------------- classify


def test_classify_json(capsys):
    code, out, _ = run(capsys, ["--json", "classify", "--group", "Sol3", "--alpha", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"alpha": 1.0, "name": "Sol3(alpha=1)", "type": "VI"}


def test_classify_human(capsys):
    code, out, _ = run(capsys, ["classify", "--group", "G4"])
    assert code == 0
    assert "Bianchi type: IV" in out


def test_classify_dense_input(capsys, tmp_path):
    sc = catalog("SU2").constants
    path = write_doc(tmp_path, {"name": "mySU2", "c": sc.c.tolist()})
    code, out, _ = run(capsys, ["--json", "classify", "--input", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "IX"
    assert doc["name"] == "mySU2"


def test_classify_sparse_input(capsys, tmp_path):
    path = write_doc(
        tmp_path, {"c": {"XY": [0, 0, 1], "YZ": [0, 0, 0], "ZX": [0, 0, 0]}}
    )
    code, out, _ = run(capsys, ["--json", "classify", "--input", path])
    assert code == 0
    assert json.loads(out)["type"] == "II"


def test_sparse_keys_case_insensitive(capsys, tmp_path):
    path = write_doc(tmp_path, {"c": {"xy": [0, 0, 1]}})
    code, out, _ = run(capsys, ["--json", "classify", "--input", path])
    assert code == 0
    assert json.loads(out)["type"] == "II"


def test_sparse_inconsistent_pair_rejected(capsys, tmp_path):
    path = write_doc(
        tmp_path, {"c": {"XY": [0, 0, 1], "YX": [0, 0, 1]}}
    )
    code, _, err = run(capsys, ["classify", "--input", path])
    assert code == 1
    assert "exact negatives" in err


def test_sparse_pair_given_twice_rejected(capsys, tmp_path):
    # keys ignore case, so "xy" would silently overwrite "XY"
    for c in (
        {"XY": [0, 0, 1], "xy": [0, 0, 5]},
        {"XY": [0, 0, 1], "YX": [0, 0, -1], "yx": [0, 0, -1]},
    ):
        path = write_doc(tmp_path, {"c": c})
        code, out, err = run(capsys, ["curvature", "--input", path])
        assert (code, out) == (1, ""), c
        assert "given twice" in err


_OBJECT = {"a": 1}  # where a number belongs
_ZERO = [0, 0, 0]
_SPARSE = {"XY": [0, 0, 1]}
_SPARSE_DOC = json.dumps({"c": _SPARSE}).encode()


def _dense(leaf):
    """A dense ``c`` that is zero apart from one leaf."""
    return [[_ZERO, [0, 0, leaf], _ZERO], [_ZERO] * 3, [_ZERO] * 3]


def _diagonal(leaf):
    return [[leaf, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "metric_file, doc, message",
    [
        (_OBJECT, None, "--metric file must be an array of numbers"),
        (_diagonal("1"), None, "--metric file must be an array of numbers"),
        (None, {"c": _SPARSE, "metric": _OBJECT}, "metric must be an array of numbers"),
        (None, {"c": _SPARSE, "metric": _diagonal(True)}, "metric must be an array of numbers"),
        (None, {"c": _dense(_OBJECT)}, "'c' must be an array of numbers"),
        (None, {"c": _dense("1")}, "'c' must be an array of numbers"),
        (None, {"c": {"XY": _OBJECT}}, "bracket 'XY' must be an array of numbers"),
        (None, {"c": {"XY": ["0", "0", "1"]}}, "bracket 'XY' must be an array of numbers"),
        (None, {"c": _SPARSE, "params": {"alpha": True}}, "params.alpha must be a number"),
        (None, {"c": _dense(True)}, "'c' must be an array of numbers"),
        (None, {"c": {"XY": [0, 0, True]}}, "bracket 'XY' must be an array of numbers"),
        (None, {"c": _dense([1])}, "'c' must be an array of numbers"),
        (None, {"c": {"XY": [0, 0, [1]]}}, "bracket 'XY' must be an array of numbers"),
        (
            [[1, 0, 0], [0, 1], [0, 0, 1]],
            None,
            "--metric file must be a rectangular array of numbers",
        ),
    ],
    ids=[
        "metric-file",
        "metric-file-string",
        "document-metric",
        "document-metric-boolean",
        "dense-c",
        "dense-c-string",
        "sparse-c",
        "sparse-c-string",
        "params-alpha-boolean",
        "dense-c-boolean",
        "sparse-c-boolean",
        "dense-c-one-level-too-deep",
        "sparse-c-one-level-too-deep",
        "ragged-metric-file",
    ],
)
def test_non_numeric_json_exits_one(capsys, tmp_path, metric_file, doc, message):
    # numpy raises TypeError on a JSON object but reads "1" and true as 1.0,
    # and isinstance(True, int) holds
    if doc is None:
        metric = write_doc(tmp_path, metric_file, name="metric.json")
        argv = ["classify", "--group", "Nil3", "--metric", metric]
    else:
        argv = ["classify", "--input", write_doc(tmp_path, doc)]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


_NIL_METRIC = '{"c": {"XY": [0, 0, 1]}, "metric": %s}'


@pytest.mark.parametrize(
    "text, message",
    [
        (
            json.dumps({"c": [[_ZERO] * 3, [_ZERO] * 3, [_ZERO] * 2]}),
            "'c' must be a rectangular array of numbers",
        ),
        (
            _NIL_METRIC % "[[1, 0, 0], [0, 1], [0, 0, 1]]",
            "metric must be a rectangular array of numbers",
        ),
        (_NIL_METRIC % "[]", "metric must be 3x3, got shape (0,)"),
        (_NIL_METRIC % "[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]", "metric must be finite"),
        (_NIL_METRIC % "[[1, 0, 0], [0, Infinity, 0], [0, 0, 1]]", "metric must be finite"),
        (_NIL_METRIC % "[[1, 0, 0], [0, 1, 0], [0, 0, -Infinity]]", "metric must be finite"),
        (_NIL_METRIC % "[[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]", "metric must be symmetric"),
        # the asymmetry may reach 1e-8 max|g| = 4e-8, and not one ulp more
        (_NIL_METRIC % "[[4, 4e-8, 0], [0, 1, 0], [0, 0, 1]]", None),
        (
            _NIL_METRIC % f"[[4, {math.nextafter(4e-8, 1)!r}, 0], [0, 1, 0], [0, 0, 1]]",
            "metric must be symmetric",
        ),
        # |g01 - g10| overflows to inf, which is asymmetric, not a warning
        (_NIL_METRIC % "[[1, 1e308, 0], [-1e308, 1, 0], [0, 0, 1]]", "metric must be symmetric"),
        (b"\xef\xbb\xbf" + _SPARSE_DOC, "invalid JSON in {path}: Unexpected UTF-8 BOM"
         " (decode using utf-8-sig): line 1 column 1 (char 0)"),
        # JSON text is UTF-8 (RFC 8259), so a byte that does not decode is
        # invalid JSON, and the message names the file
        (
            b'{"name": "\xff", "c": {"XY": [0, 0, 1]}}',
            "invalid JSON in {path}: 'utf-8' codec can't decode byte 0xff in"
            " position 10: invalid start byte",
        ),
    ],
    ids=[
        "ragged-c",
        "ragged-metric",
        "empty-metric",
        "nan-metric",
        "inf-metric",
        "minus-inf-metric",
        "asymmetric-metric",
        "metric-at-the-symmetry-threshold",
        "metric-one-ulp-past-the-symmetry-threshold",
        "metric-asymmetry-overflows",
        "utf8-bom",
        "invalid-utf8",
    ],
)
def test_input_edge_cases_keep_their_messages(capsys, tmp_path, text, message):
    path = tmp_path / "alg.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, out, err = run(capsys, ["classify", "--input", str(path)])
    if message is None:
        assert (code, out, err) == (0, "Bianchi type: II\n", "")
    else:
        assert (code, out, err) == (1, "", f"error: {message.format(path=path)}\n")


def test_metric_file_not_utf8_names_the_file(capsys, tmp_path):
    path = tmp_path / "metric.json"
    path.write_bytes(b"[[1, 0, 0], [0, 1, 0], [0, 0, 1]] \xe9")
    code, out, err = run(capsys, ["classify", "--group", "Nil3", "--metric", str(path)])
    message = (
        f"invalid JSON in {path}: 'utf-8' codec can't decode byte 0xe9 in"
        " position 34: unexpected end of data"
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _text_mode_load(path, newline=None):
    """The reader that ``cli._load_json_file`` replaced: ``json.load`` of the
    file opened as UTF-8 text, with its error wrapping; ``newline=""``
    leaves the newlines untranslated."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"invalid JSON in {path}: nested too deeply") from None


def _load_outcome(load, path):
    try:
        return "value", json.dumps(load(path))
    except ValueError as exc:
        return "error", str(exc)


_DOC_LINES = ['{', '  "name": "Nil3",', '  "c": {"XY": [0, 0, 1]}', '}', '']
_BAD_LINES = ['{', '  "name": "Nil3",', '  "c": {"XY": [0, 0, 1],,}', '}', '']


@pytest.mark.parametrize(
    "data, offsets_move",
    [
        ("\r\n".join(_DOC_LINES).encode(), False),
        ("\r\n".join(_BAD_LINES).encode(), True),
        ("\r".join(_DOC_LINES).encode(), False),
        ("\r".join(_BAD_LINES).encode(), True),
        (b'{\r\n"name": "a",\r"c": [[[0]]],\n\r\r\n!}', True),
        (b'{"name": "a\rb", "c": {"XY": [0, 0, 1]}}', False),
        (b'{"name": "a\r\nb", "c": {"XY": [0, 0, 1]}}', False),
        (b"[1, 2]\r", False),
        ("\n".join(_DOC_LINES).encode(), False),
        ('{"name": "\u00e9\u4e2d", "c": {"XY": [0, 0, 1]}}'.encode(), False),
        (b"\xef\xbb\xbf" + "\n".join(_DOC_LINES).encode(), False),
        (b'{"name": "\xff", "c": {"XY": [0, 0, 1]}}', False),
        (b'{"name": "\r\xc3", "c": {"XY": [0, 0, 1]}}', False),
        ("\n".join(_DOC_LINES).encode("utf-16"), False),
        ("\n".join(_DOC_LINES).encode("utf-16-le"), False),
        (b"", False),
        (b"\r\n", True),
        (b"[" * 100000 + b"1" + b"]" * 100000, False),
        (b"[1,\r\n" + b" " * 20000 + b"\xff]", False),
    ],
    ids=[
        "crlf-valid",
        "crlf-malformed",
        "lone-cr-valid",
        "lone-cr-malformed",
        "mixed-newlines-malformed",
        "raw-cr-in-string",
        "raw-crlf-in-string",
        "trailing-cr",
        "lf-valid",
        "non-ascii",
        "utf8-bom",
        "invalid-utf8",
        "cr-before-invalid-utf8",
        "utf16-bom",
        "utf16-le",
        "empty",
        "only-crlf",
        "100000-deep",
        "invalid-utf8-past-the-read-chunk",
    ],
)
def test_load_json_file_matches_the_text_mode_reader(tmp_path, data, offsets_move):
    """_load_json_file, which reads bytes and translates newlines itself,
    gives the value or the message, char offsets included, of a text-mode
    ``json.load``; where a document carries a CR, reading it untranslated
    would move the offsets, so the translation is what keeps them."""
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    want = _load_outcome(_text_mode_load, str(path))
    assert _load_outcome(cli._load_json_file, str(path)) == want
    untranslated = _load_outcome(lambda p: _text_mode_load(p, newline=""), str(path))
    assert (untranslated != want) == offsets_move


def test_integer_beyond_float_range_exits_one(capsys, tmp_path):
    path = write_doc(tmp_path, {"c": _SPARSE, "metric": _diagonal(10**400)})
    code, out, err = run(capsys, ["classify", "--input", path])
    assert (code, out, err) == (1, "", "error: metric must be finite\n")


def test_sparse_bad_key_rejected(capsys, tmp_path):
    for key in ("XX", "XW", "XYZ", "X"):
        path = write_doc(tmp_path, {"c": {key: [0, 0, 1]}})
        code, _, err = run(capsys, ["classify", "--input", path])
        assert code == 1, key
        assert "error:" in err


def test_unknown_document_field_rejected(capsys, tmp_path):
    path = write_doc(tmp_path, {"c": catalog("R3").constants.c.tolist(), "zzz": 1})
    code, _, err = run(capsys, ["classify", "--input", path])
    assert code == 1
    assert "zzz" in err


def test_input_with_alpha_flag_rejected(capsys, tmp_path):
    path = write_doc(tmp_path, {"c": catalog("R3").constants.c.tolist()})
    code, _, err = run(capsys, ["classify", "--input", path, "--alpha", "1"])
    assert code == 1
    assert "alpha" in err


def test_non_lie_input_rejected(capsys, tmp_path):
    sc = constants_from_brackets(xy=(0, 0, 1), zx=(1, 1, 0), zy=(-1, 0, 0))
    path = write_doc(tmp_path, {"c": sc.c.tolist()})
    code, _, err = run(capsys, ["classify", "--input", path])
    assert code == 1
    assert "Jacobi" in err


def test_jacobi_tolerance_is_relative(capsys, tmp_path):
    # Jacobi residual 0.25 at scale 1, 2.5e-11 at scale 1e-5
    bad = constants_from_brackets(zx=(0, 0, 0.5), zy=(0.5, 0, 0))
    path = write_doc(tmp_path, {"c": (1e-5 * bad.c).tolist()})
    code, _, err = run(capsys, ["classify", "--input", path])
    assert code == 1
    assert "not a Lie algebra" in err
    # Sol3(2) at scale 1e4 in a random basis: Jacobi round-off about eps |c|^2
    sol = StructureConstants(1e4 * catalog("Sol3", 2.0).constants.c)
    moved = change_basis(sol, random_gl(np.random.default_rng(0)))
    path = write_doc(tmp_path, {"c": moved.c.tolist()}, name="sol.json")
    code, out, _ = run(capsys, ["--json", "classify", "--input", path])
    assert code == 0
    assert json.loads(out)["type"] == "VI"


def test_document_metric_field(capsys, tmp_path):
    g = [[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    path = write_doc(tmp_path, {"name": "nil-stretched",
                           "c": {"XY": [0, 0, 1]}, "metric": g})
    code, out, _ = run(capsys, ["--json", "curvature", "--input", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "nil-stretched"
    # after orthonormalizing diag(4,1,1) on [X,Y]=Z the effective bracket
    # is [X,Y]=Z/2, scaling all curvatures by 1/4
    assert doc["scalar"] == pytest.approx(-0.5 * 0.25)


def test_metric_flag_overrides(capsys, tmp_path):
    g = [[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    mpath = write_doc(tmp_path, g, name="metric.json")
    code, out, _ = run(
        capsys, ["--json", "curvature", "--group", "Nil3", "--metric", mpath]
    )
    assert code == 0
    assert json.loads(out)["scalar"] == pytest.approx(-0.125)


def test_bad_metric_rejected(capsys, tmp_path):
    g = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
    mpath = write_doc(tmp_path, g, name="metric.json")
    code, _, err = run(
        capsys, ["classify", "--group", "Nil3", "--metric", mpath]
    )
    assert code == 1
    assert "positive definite" in err


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0])
def test_asymmetric_metric_rejected_at_any_scale(capsys, tmp_path, scale):
    skew = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    g = scale * (np.eye(3) + skew)
    mpath = write_doc(tmp_path, g.tolist(), name="metric.json")
    code, _, err = run(capsys, ["classify", "--group", "Nil3", "--metric", mpath])
    assert code == 1
    assert "symmetric" in err


@pytest.mark.parametrize("command", ["classify", "curvature", "foliations"])
def test_each_command_checks_jacobi_once(capsys, monkeypatch, command):
    calls = []
    kernel = algebra._jacobi

    def counted(c):
        calls.append(c)
        return kernel(c)

    monkeypatch.setattr(algebra, "_jacobi", counted)
    code, _, _ = run(capsys, [command, "--group", "Nil3"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["classify", "curvature", "foliations"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1e-9x"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, command, tol):
    # NaN or inf would accept any bracket, a negative tol would refuse all
    code, out, err = run(capsys, [command, "--group", "Nil3", f"--tol={tol}"])
    assert (code, out) == (1, "")
    assert "argument --tol: must be a finite nonnegative number" in err


def test_tolerance_accepts_a_near_lie_bracket(capsys, tmp_path):
    # Jacobi residual 0.125 |c|_F^2: within --tol 0.2, beyond the default
    doc = {"c": {"XY": [0, 0, 1], "ZX": [1, 1, 0], "ZY": [-1, 0, 0]}}
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["classify", "--input", path, "--tol", "0.2"])
    assert code == 0
    assert out.startswith("Bianchi type: ")
    code, out, err = run(capsys, ["classify", "--input", path])
    assert (code, out) == (1, "")
    assert "not a Lie algebra" in err


@pytest.mark.parametrize(
    "scale, message", [(1e-160, "not a Lie algebra"), (1e160, "must be finite")]
)
def test_non_lie_input_rejected_at_extreme_scales(capsys, tmp_path, scale, message):
    bad = constants_from_brackets(xy=(0, 0, 1), zx=(1, 0, 0))
    path = write_doc(tmp_path, {"c": (scale * bad.c).tolist()})
    code, _, err = run(capsys, ["classify", "--input", path])
    assert code == 1
    assert message in err


# ---------------------------------------------------------------- curvature


def test_curvature_json_shape(capsys):
    code, out, _ = run(capsys, ["--json", "curvature", "--group", "Sol3", "--alpha", "1"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc.keys()) == [
        "constant_curvature",
        "name",
        "ricci",
        "ricci_spectrum",
        "scalar",
        "sectional_basis",
    ]
    assert doc["ricci"] == [[0, 0, 0], [0, 0, 0], [0, 0, -2]]
    assert doc["scalar"] == -2
    assert doc["sectional_basis"] == [1, -1, -1]
    assert not doc["constant_curvature"]


def test_curvature_constant_flag(capsys):
    # the field carries the constant K when curvature is constant, else null
    code, out, _ = run(capsys, ["--json", "curvature", "--group", "H3"])
    doc = json.loads(out)
    assert doc["constant_curvature"] == -1
    assert doc["scalar"] == -6
    code, out, _ = run(capsys, ["--json", "curvature", "--group", "SU2"])
    assert json.loads(out)["constant_curvature"] == 1


# --------------------------------------------------------------- foliations


def test_foliations_nil_json(capsys):
    code, out, _ = run(capsys, ["--json", "foliations", "--group", "Nil3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["admits"] is True
    assert len(doc["directions"]) == 1
    entry = doc["directions"][0]
    assert sorted(entry.keys()) == [
        "adapted",
        "conformal_residual",
        "direction",
        "family_alpha",
        "family_type",
        "geodesic_residual",
    ]
    assert entry["family_type"] == "II"
    assert entry["direction"][2] == pytest.approx(1.0, abs=1e-10)
    assert doc["lattice_size"] == 20000


def test_foliations_negative_human(capsys):
    code, out, _ = run(capsys, ["foliations", "--group", "Sol3", "--alpha", "2"])
    assert code == 0
    assert "no conformal foliation by geodesics" in out
    assert "does not admit harmonic morphisms" in out
    assert "minimum total residual" in out


def test_foliations_constant_human(capsys):
    code, out, _ = run(capsys, ["foliations", "--group", "SU2"])
    assert code == 0
    assert "constant curvature" in out
    assert "admits harmonic morphisms" in out
    assert "continuum" in out


def test_foliations_positive_human(capsys):
    code, out, _ = run(capsys, ["foliations", "--group", "SL2R~"])
    assert code == 0
    assert "1 direction found; admits harmonic morphisms" in out
    assert "family type: VIII" in out


@pytest.mark.parametrize("group", [["Sol3", "--alpha", "1"], ["G4"]])
def test_foliations_large_metric_scale_does_not_admit(capsys, tmp_path, group):
    mpath = write_doc(tmp_path, (1e10 * np.eye(3)).tolist(), name="metric.json")
    code, out, _ = run(
        capsys, ["--json", "foliations", "--group", *group, "--metric", mpath]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["constant_curvature"] is False
    assert doc["admits"] is False


def test_oversized_lattice_exits_one(capsys, monkeypatch):
    # the certificate lattice has one size, so foliations refuses --lattice
    # before it builds anything
    def no_lattice():
        raise AssertionError("lattice allocated")

    monkeypatch.setattr(foliation, "_lattice", no_lattice)
    code, out, err = run(capsys, ["foliations", "--group", "Nil3", "--lattice", "1000001"])
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --lattice 1000001" in err


def test_verify_paper_has_no_lattice_flag(capsys):
    code, _, err = run(capsys, ["verify-paper", "--samples", "0", "--lattice", "16"])
    assert code == 1
    assert "unrecognized arguments: --lattice 16" in err


def _foliations_json(capsys, argv):
    code, out, _ = run(capsys, ["--json", "foliations", *argv])
    assert code == 0
    return json.loads(out)


def _row_argv(group, alpha):
    return ["--group", group] + ([] if alpha is None else ["--alpha", repr(alpha)])


def test_admitting_foliations_never_touch_the_lattice(capsys, tmp_path, monkeypatch):
    # a found direction certifies itself, so the CLI reads no floor for it
    def no_lattice(*args):
        raise AssertionError("lattice certificate computed")

    monkeypatch.setattr(foliation, "_lattice", no_lattice)
    monkeypatch.setattr(foliation, "_lattice_floor", no_lattice)
    argvs = [_row_argv(*row) for row in cli._CLASSIFICATION_ROWS]
    # a planted type II sample in a random basis, under the non-identity
    # metric that keeps its adapted frame orthogonal
    p = random_gl(np.random.default_rng(5))
    nil = change_basis(catalog("Nil3").constants, p)
    path = write_doc(tmp_path, {"c": nil.c.tolist(), "metric": (p.T @ p).tolist()})
    argvs.append(["--input", path])
    admitting = 0
    for argv in argvs:
        if argv[:2] in (["--group", "G4"], ["--group", "Sol3"]):
            continue
        doc = _foliations_json(capsys, argv)
        assert doc["admits"] is True and doc["lattice_min_residual"] is None, argv
        admitting += not doc["constant_curvature"]
    # Nil3, H2xR, SL2R~ and the planted input
    assert admitting == 4


def _random_metric_argvs(tmp_path, groups, seed, per_group):
    rng = np.random.default_rng(seed)
    for k, (group, alpha) in enumerate(groups):
        for j in range(per_group):
            g = random_spd(rng)
            path = write_doc(tmp_path, g.tolist(), name=f"metric-{k}-{j}.json")
            yield group, alpha, g, [*_row_argv(group, alpha), "--metric", path]


def test_floor_is_null_exactly_on_admitting_results(capsys, tmp_path):
    argvs = [_row_argv(*row) for row in cli._CLASSIFICATION_ROWS]
    argvs += [
        argv
        for *_, argv in _random_metric_argvs(
            tmp_path, cli._CLASSIFICATION_ROWS, seed=11, per_group=2
        )
    ]
    seen = set()
    for argv in argvs:
        doc = _foliations_json(capsys, argv)
        assert (doc["lattice_min_residual"] is None) == doc["admits"], argv
        seen.add((doc["admits"], doc["constant_curvature"]))
    assert seen == {(True, True), (True, False), (False, False)}


def test_non_admitting_floor_matches_the_library(capsys, tmp_path):
    groups = [("G4", None), ("Sol3", 0.5), ("Sol3", 2.0)]
    cases = _random_metric_argvs(tmp_path, groups, seed=12, per_group=3)
    for group, alpha, g, argv in cases:
        doc = _foliations_json(capsys, argv)
        sc = orthonormalize(catalog(group, alpha).constants, algebra.MetricSpec(g))
        want = search_directions(sc).lattice_min_residual
        assert doc["admits"] is False
        assert doc["lattice_min_residual"] == float(f"{want:.12g}"), argv


_GOLDEN = Path(__file__).parent / "data" / "foliations_golden.json"
_GOLDEN_EXACT = {
    "admits",
    "constant_curvature",
    "lattice_size",
    "family_type",
    "family_alpha",
}


def _assert_matches_golden(got, want, key=None):
    if key in _GOLDEN_EXACT or isinstance(want, (str, bool)) or want is None:
        assert got == want, key
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), key
        for k in want:
            _assert_matches_golden(got[k], want[k], k)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            _assert_matches_golden(g, w, key)
    else:
        assert abs(got - want) <= 1e-12, (key, got, want)


def test_foliations_json_matches_golden(capsys):
    """``--json foliations`` on every catalog row against a recorded run.

    The file holds the output of ``lie3geo --json foliations --group G
    [--alpha A]`` for each row of ``cli._CLASSIFICATION_ROWS``, recorded from
    an iterative search whose directions carried round-off near 1e-24.
    Verdicts, lattice sizes, family types and direction counts must match
    exactly; every other number within 1e-12, so such residuals may move.
    H2xR's ``adapted.x`` and ``adapted.y`` were re-recorded as (0, -1) once
    the search returned its direction Z exactly: ``orthonormal_frame`` then
    breaks the tie ``|u_x| = |u_y| = 0`` toward the x axis, where the
    round-off had picked the y axis, so the frame, and with it (x, y), turns
    by 90 degrees.  ``lattice_min_residual`` of Nil3, H2xR and SL2R~ was
    re-recorded as null once the CLI stopped reporting the floor on
    admitting results, where it only measured the lattice spacing next to
    the direction found.
    """
    golden = json.loads(_GOLDEN.read_text())
    assert [(g["group"], g["alpha"]) for g in golden] == [
        (group, alpha) for group, alpha in cli._CLASSIFICATION_ROWS
    ]
    for row in golden:
        argv = ["--json", "foliations", "--group", row["group"]]
        if row["alpha"] is not None:
            argv += ["--alpha", repr(row["alpha"])]
        code, out, _ = run(capsys, argv)
        assert code == 0
        _assert_matches_golden(json.loads(out), row["output"])


_VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_paper_golden.json"
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _assert_detail_matches(got, want):
    assert _NUMBER.split(got) == _NUMBER.split(want), (got, want)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert abs(float(g) - float(w)) <= 1e-12, (got, want)


def test_verify_paper_json_matches_golden(capsys):
    """``--json verify-paper --samples 5 --seed 42`` against a recorded run.

    The file was recorded while the CLI still adapted and classified each
    found direction itself and sampled the non-existence metrics in its own
    loop.  Section names, statuses, labels and verdicts must match exactly,
    and so must each detail string apart from the numbers in it, which match
    within 1e-12 as in the foliations golden file.
    """
    want = json.loads(_VERIFY_GOLDEN.read_text())
    code, out, _ = run(
        capsys, ["--json", "verify-paper", "--samples", "5", "--seed", "42"]
    )
    assert code == 0
    got = json.loads(out)
    assert sorted(got) == sorted(want)
    for key in ("samples", "seed", "lattice", "overall"):
        assert got[key] == want[key], key
    assert [(s["name"], s["status"]) for s in got["sections"]] == [
        (s["name"], s["status"]) for s in want["sections"]
    ]
    for got_section, want_section in zip(got["sections"], want["sections"]):
        assert [(c["label"], c["ok"]) for c in got_section["checks"]] == [
            (c["label"], c["ok"]) for c in want_section["checks"]
        ]
        for got_check, want_check in zip(got_section["checks"], want_section["checks"]):
            _assert_detail_matches(got_check["detail"], want_check["detail"])


_TEXT_GOLDEN = Path(__file__).parent / "data" / "text_golden.json"


@pytest.mark.parametrize(
    "case",
    json.loads(_TEXT_GOLDEN.read_text()),
    ids=lambda case: " ".join(case["argv"]),
)
def test_text_output_matches_golden(capsys, case):
    """Text stdout of ``catalog``, of ``classify``, ``curvature`` and
    ``foliations`` on every catalog row, and of ``verify-paper --samples 5
    --seed 42``, against a recorded run; numbers match within 1e-12."""
    code, out, _ = run(capsys, case["argv"])
    assert code == 0
    _assert_detail_matches(out, case["stdout"])


_PLANTED_GOLDEN = Path(__file__).parent / "data" / "foliations_planted_golden.json"


def _planted_documents(seed=24, per_family=20):
    """``per_family`` seeded ``--input`` documents per family of
    ``enumerate_families``: ``adapted_constants`` of a family sample, in a
    random basis ``p`` of condition below 10, with the metric ``s p^T p``
    for scales ``s`` stratified log-uniformly over [1e-2, 1e2]."""
    rng = np.random.default_rng(seed)
    for family in foliation.enumerate_families():
        strata = (rng.permutation(per_family) + rng.random(per_family)) / per_family
        for s in 1e-2 * 1e4**strata:
            planted = foliation.adapted_constants(family.sample(rng))
            p = random_gl(rng, cond_limit=10.0)
            yield {
                "name": f"{family.name} s={s:.4g}",
                "c": change_basis(planted, p).c.tolist(),
                "metric": (s * (p.T @ p)).tolist(),
            }


def test_planted_foliations_json_is_pinned_byte_for_byte(capsys, tmp_path):
    """``--json foliations --input`` on 60 planted documents against the
    stdout recorded, byte for byte, before the search's found-direction
    path and ``adapt_basis`` moved from numpy arrays onto Python floats.
    The catalog golden files pin only identity metrics, within 1e-12; here
    every found direction, residual, adapted coefficient and family type of
    a random basis and metric keeps its exact text.  The documents are
    drawn by the numpy of the recording (2.4) and its bundled LAPACK, which
    decide the last bits of the brackets and of the search."""
    golden = json.loads(_PLANTED_GOLDEN.read_text())
    docs = list(_planted_documents())
    assert len(docs) == len(golden) == 60
    admitting = 0
    for index, (doc, want) in enumerate(zip(docs, golden)):
        path = write_doc(tmp_path, doc, f"planted-{index:02d}.json")
        code, out, err = run(capsys, ["--json", "foliations", "--input", path])
        assert (code, out, err) == (0, want, ""), doc["name"]
        admitting += bool(json.loads(out)["directions"])
    # the two non-constant families report a direction on every document
    assert admitting == 40


_CURVATURE_GOLDEN = Path(__file__).parent / "data" / "curvature_golden.json"


def _curvature_documents(seed=29, per_row=5):
    """``per_row`` seeded ``--input`` documents per catalog row of
    ``cli._CLASSIFICATION_ROWS``: its brackets in a random basis of condition
    below 10, times ``10**e`` for exponents ``e`` stratified uniformly over
    [-150, 150], with a random metric."""
    rng = np.random.default_rng(seed)
    for group, alpha in cli._CLASSIFICATION_ROWS:
        strata = (rng.permutation(per_row) + rng.random(per_row)) / per_row
        label = group if alpha is None else f"{group}({alpha:g})"
        for e in -150.0 + 300.0 * strata:
            sc = change_basis(catalog(group, alpha).constants, random_gl(rng, cond_limit=10.0))
            yield {
                "name": f"{label} e={e:.1f}",
                "c": (10.0**e * sc.c).tolist(),
                "metric": random_spd(rng).tolist(),
            }


def test_curvature_json_is_pinned_byte_for_byte(capsys, tmp_path):
    """``--json curvature --input`` on 65 documents in random bases and
    metrics, at bracket scales from 1e-150 to 1e150, against the stdout
    recorded byte for byte: every Ricci entry, spectral line, scalar,
    sectional curvature and constant flag keeps its exact text.  As for the
    planted foliations, the documents are drawn by the numpy of the
    recording (2.4) and its bundled LAPACK."""
    golden = json.loads(_CURVATURE_GOLDEN.read_text())
    docs = list(_curvature_documents())
    assert len(docs) == len(golden) == 65
    constant = 0
    for index, (doc, want) in enumerate(zip(docs, golden)):
        path = write_doc(tmp_path, doc, f"curvature-{index:02d}.json")
        code, out, err = run(capsys, ["--json", "curvature", "--input", path])
        assert (code, out, err) == (0, want, ""), doc["name"]
        constant += json.loads(out)["constant_curvature"] is not None
    # R3 and H3 are flat and hyperbolic under every metric
    assert constant == 10


# ------------------------------------------------------- output conventions


def test_json_12_digit_rounding(capsys, tmp_path):
    # a bracket coefficient with more than 12 significant digits must be
    # rounded in the JSON output but used at full precision internally
    c = catalog("Nil3").constants.c * (1.0 + 1e-13)
    path = write_doc(tmp_path, {"c": c.tolist()})
    code, out, _ = run(capsys, ["--json", "foliations", "--input", path])
    assert code == 0
    doc = json.loads(out)
    z = doc["directions"][0]["adapted"]["z"]
    assert len(f"{z!r}".replace("-", "").replace(".", "").lstrip("0")) <= 12


def test_cold_certificate_is_warning_free_and_matches(capsys):
    """In a fresh interpreter the lattice table and the interpolation
    inverse are built cold, under ``-W error::RuntimeWarning``; the
    certificate of G4, which admits no foliation, must come out as in this
    warm process."""
    argv = ["--json", "foliations", "--group", "G4"]
    src = str(Path(lie3geo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cold = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lie3geo", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert cold.returncode == 0, cold.stderr
    code, out, _ = run(capsys, argv)
    assert code == 0
    want = json.loads(out)["lattice_min_residual"]
    assert want is not None
    assert json.loads(cold.stdout)["lattice_min_residual"] == want


def _round_floats_oracle(obj):
    """Each float of ``obj`` rounded to 12 significant digits, tuples made
    lists, in a walk of its own: with ``json.dumps`` the reference that
    ``render_json``'s one-walk writer must match byte for byte."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats_oracle(v) for v in obj]
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _render_json_oracle(doc):
    return json.dumps(_round_floats_oracle(doc), indent=2, sort_keys=True) + "\n"


def _command_documents():
    """The ``--json`` document of every command on the golden inputs: the
    catalog, each catalog row through classify, curvature and foliations,
    and verify-paper."""
    parser = cli.build_parser()
    argvs = [["catalog"]]
    for group, alpha in cli._CLASSIFICATION_ROWS:
        row = ["--group", group] + ([] if alpha is None else ["--alpha", repr(alpha)])
        argvs += [[command, *row] for command in ("classify", "curvature", "foliations")]
    for argv in argvs:
        args = parser.parse_args(argv)
        yield args.func(args)[0]
    yield cli.run_verification(samples=5, seed=42)[0]


def test_render_json_matches_json_dumps_on_every_command_document():
    docs = list(_command_documents())
    assert len(docs) == 2 + 3 * len(cli._CLASSIFICATION_ROWS)
    for doc in docs:
        assert cli.render_json(doc) == _render_json_oracle(doc)


_SUBNORMAL = 5e-324


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"empty list": [], "empty dict": {}, "empty tuple": ()},
        {"zeros": [0.0, -0.0, 0, -0]},
        {"subnormals": [_SUBNORMAL, -_SUBNORMAL, 1e-320, 2.2250738585072014e-308 / 3]},
        {"huge": [1e308, -1.7976931348623157e308, 10**30, -(10**30)]},
        {"non-finite": [math.nan, math.inf, -math.inf, 1e308 * 10]},
        {"rounding": [0.1 + 0.2, 1 / 3, 2 / 3, 123456789012345678.0, 1.23456789012e-5]},
        {"types": [True, False, None, 7, -7, "seven", 7.0, np.float64(1 / 7)]},
        {"name": "Bianchi–Milnor ü 日本 \U0001f600", "lone": "\ud800 and \udfff"},
        {"escapes": "quote \" backslash \\ tab \t newline \n bell \x07"},
        {"tuples": (1, (2.5, ()), [(), {}]), "nested": [[{"b": [1], "a": {}}]]},
        {"keys sort": {"b": 1, "a": 2, "B": 3, "é": 4, "": 5, "10": 6, "9": 7}},
        {1: "int", 2.5: "float", 3: [1 / 3]},
        {True: "bool"},
        {None: "null"},
        {math.nan: "nan key"},
    ],
)
def test_render_json_matches_json_dumps_on_edge_values(doc):
    assert cli.render_json(doc) == _render_json_oracle(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"set": {1.0}}, "cannot render set as JSON"),
        ({"deep": [[{"x": np.int64(1)}]]}, "cannot render int64 as JSON"),
        ({"array": np.zeros(2)}, "cannot render ndarray as JSON"),
        ({(1, 2): 0}, "keys must be str, int, float, bool or None, not tuple"),
    ],
)
def test_render_json_refuses_what_json_cannot_hold(doc, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        cli.render_json(doc)


def test_json_deterministic(capsys):
    argv = ["--json", "foliations", "--group", "SL2R~"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")
    json.loads(out1)  # well-formed


def test_document_round_trip_bit_for_bit(capsys, tmp_path):
    entries = [
        catalog(name, alpha)
        for name, alpha in [
            ("R3", None), ("Nil3", None), ("H2xR", None), ("G4", None),
            ("H3", None), ("Sol3", 0.5), ("Sol3", 1.0), ("G7", 0.0),
            ("G7", 2.0), ("SL2R~", None), ("SU2", None),
        ]
    ]
    for entry in entries:
        doc = {
            "name": entry.name,
            "c": entry.constants.c.tolist(),
            "metric": entry.metric.g.tolist(),
        }
        if entry.alpha is not None:
            doc["params"] = {"alpha": entry.alpha}
        text = json.dumps(doc)
        name, sc, metric = cli.parse_algebra_document(json.loads(text))
        assert sc.c.tobytes() == entry.constants.c.tobytes(), entry.name
        assert metric.g.tobytes() == np.eye(3).tobytes()


# -------------------------------------------------------------- verify-paper


def test_verify_paper_zero_samples(capsys):
    code, out, _ = run(capsys, ["--json", "verify-paper", "--samples", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["overall"] == "PASS"
    statuses = {s["name"]: s["status"] for s in rep["sections"]}
    assert statuses["non-existence sampling"] == "SKIPPED"
    assert statuses["constraint families"] == "PASS"
    assert statuses["existence positives"] == "PASS"
    assert statuses["catalog classification"] == "PASS"


def test_verify_paper_negative_samples_rejected(capsys):
    code, _, err = run(capsys, ["verify-paper", "--samples", "-3"])
    assert code == 1
    assert "nonnegative" in err


def test_verify_paper_negative_seed_rejected(capsys):
    # numpy's own refusal names no flag
    code, _, err = run(capsys, ["verify-paper", "--seed", "-1"])
    assert code == 1
    assert err == "error: seed must be nonnegative\n"


def test_verify_paper_detects_corruption(monkeypatch):
    # a wrong SU2 bracket table must fail the classification section
    wrong = constants_from_brackets(xy=(0, 0, 2), zx=(0, 2, 0), zy=(2, 0, 0))

    def corrupt_catalog(name, alpha=None):
        entry = catalog(name, alpha)
        if entry.name == "SU2":
            entry = dataclasses.replace(entry, constants=wrong)
        return entry

    monkeypatch.setattr(cli, "catalog", corrupt_catalog)
    report, ok = cli.run_verification(samples=0)
    assert not ok
    statuses = {s["name"]: s["status"] for s in report["sections"]}
    assert statuses["catalog classification"] == "FAIL"
    failing = [
        c
        for s in report["sections"]
        if s["name"] == "catalog classification"
        for c in s["checks"]
        if not c["ok"]
    ]
    assert len(failing) == 1 and "SU2" in failing[0]["label"]


def test_verify_paper_human_sections(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--samples", "0"])
    assert code == 0
    assert "constraint families: PASS" in out
    assert "existence positives: PASS" in out
    assert "non-existence sampling: SKIPPED" in out
    assert "catalog classification: PASS" in out
    assert out.strip().endswith("overall: PASS")


def _readme_argvs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("lie3geo ")]
    return [shlex.split(line)[1:] for line in lines]


def _argparse_vars(argv):
    """``vars(parse_args(argv))``, or None where argparse exits; what it
    prints is swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_readme_commands_parse():
    # a flag removed from the parser must not stay documented, and a
    # documented line must take the plain pass, not argparse's own forms
    argvs = _readme_argvs()
    assert len(argvs) >= 7
    for argv in argvs:
        want = _argparse_vars(argv)
        assert want is not None, f"README command does not parse: {argv}"
        plain = cli._plain_args(argv)
        assert plain is not None, f"README command needs argparse: {argv}"
        assert vars(plain) == want, argv


def _golden_argvs():
    argvs = [case["argv"] for case in json.loads(_TEXT_GOLDEN.read_text())]
    for row in json.loads(_GOLDEN.read_text()):
        argv = ["--json", "foliations", "--group", row["group"]]
        if row["alpha"] is not None:
            argv += ["--alpha", repr(row["alpha"])]
        argvs.append(argv)
    argvs.append(["--json", "verify-paper", "--samples", "5", "--seed", "42"])
    return argvs


# the forms only argparse parses, and values the types refuse
_EDGE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["foliations", "-h"],
    ["foliations", "--help", "--input", "a.json"],
    ["foliations", "--inp", "a.json"],
    ["--js", "foliations", "--input", "a.json"],
    ["foliations", "--input=a.json"],
    ["foliations", "--input", "--", "a.json"],
    ["foliations", "--", "--input", "a.json"],
    ["classify", "--group", "Sol3", "--alpha", "-1"],
    ["classify", "--group", "Sol3", "--alpha", "-1e-3"],
    ["classify", "--group", "Sol3", "--alpha", ""],
    ["classify", "--group", "Sol3", "--alpha", "nan"],
    ["classify", "--group", "Sol3", "--alpha", "1e999"],
    ["classify", "--group", "Sol3", "--alpha"],
    ["classify", "--input", ""],
    ["classify", "--input", "-"],
    ["classify", "--group", "Nil3", "--tol", "nan"],
    ["classify", "--group", "Nil3", "--tol", "-1"],
    ["classify", "--group", "Nil3", "--tol", "inf"],
    ["classify", "--group", "Nil3", "--tol", ""],
    ["classify", "--group", "Nil3", "--tol", "0"],
    ["classify", "--group", "Nil3", "--group", "H3"],
    ["classify", "--input", "a.json", "--input", "b.json"],
    ["--json", "--json", "catalog"],
    ["classify", "--input", "a.json", "--group", "Nil3"],
    ["classify", "--group", "Nil3", "--input", "a.json"],
    ["classify"],
    ["classify", "--alpha", "2"],
    ["foliations", "--json", "--input", "a.json"],
    ["foliations", "--input", "a.json", "--json"],
    ["foliations", "--input", "a.json", "extra"],
    ["--input", "a.json", "foliations"],
    ["nosuchcmd"],
    ["Foliations", "--input", "a.json"],
    ["catalog", "--group", "Nil3"],
    ["verify-paper", "--samples", "-1"],
    ["verify-paper", "--samples", "1.5"],
    ["verify-paper", "--samples", ""],
    ["verify-paper", "--samples", "0", "--seed", "0"],
    ["verify-paper", "--samp", "5"],
    ["verify-paper", "--samples=5"],
    ["--json"],
    ["catalog", "--json"],
    ["foliations", "--input", "a.json", "--tol"],
    ["verify-paper", "--seed", "1", "--seed", "2"],
    ["classify", "--metric", "m.json"],
    ["--json", "catalog", "extra"],
    ["foliations", "--input", "a.json", "--input", "a.json"],
]


_INPUT_FLAGS = ["--input", "--group", "--alpha", "--metric", "--tol"]
_COMMAND_FLAGS = {
    "catalog": [],
    "classify": _INPUT_FLAGS,
    "curvature": _INPUT_FLAGS,
    "foliations": _INPUT_FLAGS,
    "verify-paper": ["--samples", "--seed"],
    "nope": [],
}


def _random_argvs(rng, count):
    """Seeded mixes of the commands with their own flags (mostly), other
    flags, abbreviations and argparse's own forms, and values that parse
    and values that do not."""
    tops = [[], [], ["--json"], ["--json"], ["-h"], ["--js"], ["--"]]
    tops.append(["--json", "--json"])
    noise = ["--inp", "--gr", "--json", "-h", "--help", "--", "--samples", "--input"]
    values = [
        "a.json", "G7", "Nil3", "0.5", "2", "0", "100", "1e-3", "", "nan",
        "inf", "-1", "-", "1.5", " 3", "1_0", "0x10", "--group", "=", "foliations",
    ]
    argvs = []
    for _ in range(count):
        argv = list(tops[rng.integers(len(tops))])
        command = str(rng.choice(list(_COMMAND_FLAGS)))
        if rng.random() < 0.95:
            argv.append(command)
        own = _COMMAND_FLAGS[command]
        for _ in range(rng.integers(0, 5)):
            flag = str(rng.choice(own if own and rng.random() < 0.8 else noise))
            value = str(rng.choice(values))
            if rng.random() < 0.05:
                argv.append(f"{flag}={value}")
                continue
            argv.append(flag)
            if rng.random() < 0.95:
                argv.append(value)
        argvs.append(argv)
    return argvs


def _same_vars(got, want):
    """Dict equality in which NaN equals NaN (``--alpha nan`` parses)."""
    return got.keys() == want.keys() and all(
        got[k] == want[k] or got[k] != got[k] and want[k] != want[k] for k in want
    )


def test_plain_pass_matches_argparse(tmp_path):
    """On every argv the plain pass declines or gives ``parse_args``'s
    namespace; it declines wherever argparse exits, so help, usage errors
    and their exit codes stay argparse's.  The README lines, the golden
    files' argvs and the benchmark's form take the pass."""
    path = write_doc(tmp_path, {"c": _SPARSE})
    bench_form = ["--json", "foliations", "--input", path]
    for argv in [*_readme_argvs(), *_golden_argvs(), bench_form]:
        plain = cli._plain_args(argv)
        assert plain is not None and vars(plain) == _argparse_vars(argv), argv
    mixed = [*_EDGE_ARGVS, *_random_argvs(np.random.default_rng(21), 2500)]
    taken = 0
    for argv in mixed:
        want = _argparse_vars(argv)
        plain = cli._plain_args(argv)
        if plain is not None:
            assert want is not None and _same_vars(vars(plain), want), argv
            taken += 1
    # the mix reaches both paths
    assert taken >= 100 and len(mixed) - taken >= 1500


def test_plain_argv_never_builds_argparse(capsys, monkeypatch, tmp_path):
    """The plain pass reads the command table, so the README lines, the
    golden argvs and the benchmark's form run without the parser; help
    still reaches it."""
    # the README's files, written where its lines name them
    monkeypatch.chdir(tmp_path)
    path = write_doc(tmp_path, {"c": _SPARSE}, "my_algebra.json")
    (tmp_path / "diag.json").write_text("[[1, 0, 0], [0, 2, 0], [0, 0, 3]]")
    bench_form = ["--json", "foliations", "--input", path]
    argvs = [*_readme_argvs(), *_golden_argvs(), bench_form]

    def no_parser():
        raise AssertionError("argparse was built")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    for argv in argvs:
        assert run(capsys, argv)[0] == 0, argv
    with pytest.raises(AssertionError, match="argparse was built"):
        cli.main(["-h"])


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--json", "foliations", "--input", None], 0),
        (["foliations", "--inp", None], 0),
        (["foliations", "--input", None, "--group", "Nil3"], 1),
    ],
    ids=["json-foliations", "abbreviation", "usage-error"],
)
def test_main_reads_sys_argv(capsys, monkeypatch, tmp_path, argv, code):
    # None stands for the path of a document written here
    argv = [write_doc(tmp_path, {"c": _SPARSE}) if a is None else a for a in argv]
    want = run(capsys, argv)
    assert want[0] == code
    monkeypatch.setattr(sys, "argv", ["lie3geo", *argv])
    assert run(capsys, None) == want


# ---------------------------------------------------------------- nesting and underflow


def _nested(depth, leaf=1):
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"c": _nested(900)}, "error: 'c' must be an array of numbers\n"),
        ({"c": {"XY": _nested(900)}}, "error: bracket 'XY' must be an array of numbers\n"),
        ({"c": _SPARSE, "metric": _nested(900)}, "error: metric must be an array of numbers\n"),
    ],
    ids=["dense-c", "sparse-c", "document-metric"],
)
def test_deeply_nested_document_exits_one(capsys, tmp_path, doc, message):
    # the leaf check recursed once per level and raised RecursionError
    code, out, err = run(capsys, ["classify", "--input", write_doc(tmp_path, doc)])
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("flag, depth", [("--input", 100000), ("--metric", 5000)])
def test_file_too_deep_for_the_json_parser_exits_one(capsys, tmp_path, flag, depth):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "1" + "]" * depth)
    argv = ["classify", flag, str(path)]
    if flag == "--metric":
        argv += ["--group", "Nil3"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: invalid JSON in {path}: nested too deeply\n")


def test_cli_deep_nesting_prints_no_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"c": _nested(900)}))
    proc = subprocess.run(
        [sys.executable, "-m", "lie3geo", "foliations", "--input", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(lie3geo.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: 'c' must be an array of numbers\n"


@pytest.mark.parametrize("command", ["classify", "curvature", "foliations"])
def test_huge_metrics_exit_or_answer_in_time(tmp_path, command):
    # symmetrizing as 0.5 * (g + g.T) overflowed to inf, and the SVD of the
    # inf Cholesky factor never returned; the timeout fails a regression
    # instead of stalling the suite
    env = {**os.environ, "PYTHONPATH": str(Path(lie3geo.__file__).parents[1])}
    for metric, code in (
        ([[1e308, 9e307, 0], [9e307, 1e308, 0], [0, 0, 1]], 1),
        ([[1.7e308, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
        ((1e308 * np.eye(3)).tolist(), 0),
    ):
        path = write_doc(tmp_path, {"c": {"XY": [0, 0, 1]}, "metric": metric})
        proc = subprocess.run(
            [sys.executable, "-m", "lie3geo", command, "--input", path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code
        if code:
            assert (proc.stdout, proc.stderr) == (
                "", "error: basis-change matrix is singular or too ill conditioned\n"
            )
        elif command == "classify":
            assert proc.stdout == "Bianchi type: II\n"


def test_type_iv_does_not_admit_at_tiny_scale(capsys, tmp_path):
    # the unscaled Riemann tensor and its threshold underflowed to 0, and G4
    # at 1e-170 printed "constant curvature; admits harmonic morphisms"
    doc = {"c": {"ZX": [1e-170, 0, 0], "ZY": [1e-170, 1e-170, 0]}}
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["foliations", "--input", path])
    assert code == 0
    assert "no conformal foliation by geodesics" in out
    code, out, _ = run(capsys, ["classify", "--input", path])
    assert out == "Bianchi type: IV\n"
    code, out, _ = run(capsys, ["--json", "curvature", "--input", path])
    assert json.loads(out)["constant_curvature"] is None
