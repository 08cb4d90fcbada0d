import json
import re
from pathlib import Path

import numpy as np
import pytest

from lie3geo import cli, foliation
from lie3geo.algebra import catalog, constants_from_brackets


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


@pytest.mark.parametrize(
    "argv",
    [
        ["foliations", "--group", "Nil3", "--lattice", "1000001"],
        ["verify-paper", "--samples", "0", "--lattice", "1000001"],
    ],
)
def test_oversized_lattice_exits_one(capsys, monkeypatch, argv):
    def no_lattice(n):
        raise AssertionError("lattice allocated")

    monkeypatch.setattr(foliation, "_lattice", no_lattice)
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "lattice size must be at most 1000000" in err


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
    by 90 degrees.
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
        doc = cli.document_from_entry(entry)
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


def test_verify_paper_detects_corruption():
    # a wrong SU2 bracket table must fail the classification section
    wrong = constants_from_brackets(xy=(0, 0, 2), zx=(0, 2, 0), zy=(2, 0, 0))
    report, ok = cli.run_verification(
        samples=0, classification_overrides={"SU2": wrong}
    )
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
