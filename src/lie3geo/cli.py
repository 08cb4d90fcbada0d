"""Command-line front end.

Subcommands: ``catalog`` lists the built-in groups, ``classify`` prints the
Bianchi type of an input algebra, ``curvature`` prints its curvature data,
``foliations`` searches for conformal foliations by geodesics, and
``verify-paper`` runs the built-in verification suite for the classification
theorem (conformal foliations by geodesics exist for some left-invariant
metric exactly when the algebra type is not IV and not VI).

Algebras come either from ``--group NAME [--alpha A]`` (catalog lookup) or
from ``--input PATH``, a UTF-8 JSON document::

    {
      "name": "optional label",
      "c": [[[...]]]           # dense 3x3x3 tensor, or a sparse map like
                               # {"XY": [0, 0, 1], "ZX": [0, 0, 0]}
      "metric": [[...], ...],  # optional 3x3 SPD matrix, default identity
      "params": {"alpha": 1.0} # optional, informational
    }

Sparse keys name ordered basis pairs with the letters X, Y, Z; unspecified
brackets are zero, and giving both "XY" and "YX" with values that are not
exact negatives is rejected.  Exit codes: 0 success, 1 invalid input,
2 verification failure.  All output is deterministic for fixed flags, and
``--json`` switches to a single machine-readable document.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .algebra import (
    DIM,
    JACOBI_TOL,
    CatalogEntry,
    MetricSpec,
    StructureConstants,
    catalog,
    catalog_info,
    catalog_names,
    jacobi_residual,
    orthonormalize,
)
from .bianchi import BianchiType, classify, same_type
from .foliation import (
    LATTICE_DEFAULT,
    ACCEPT_RESIDUAL_SQ,
    adapted_constants,
    admits_harmonic_morphism,
    classify_family,
    enumerate_families,
    jacobi_constraints,
    residuals,
    search_directions,
)
from .geometry import curvature

__all__ = [
    "build_parser",
    "parse_algebra_document",
    "document_from_entry",
    "render_json",
    "run_verification",
    "main",
    "entrypoint",
]

_LETTERS = {"X": 0, "Y": 1, "Z": 2}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_vector3(value, label: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (DIM,):
        raise ValueError(f"{label} must be a list of {DIM} numbers")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{label} must be finite")
    return arr


def _constants_from_sparse(mapping: dict) -> StructureConstants:
    c = np.zeros((DIM, DIM, DIM))
    seen: dict[tuple[int, int], np.ndarray] = {}
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise ValueError(f"bracket key {key!r} is not a string")
        letters = key.strip().upper()
        if len(letters) != 2 or any(ch not in _LETTERS for ch in letters):
            raise ValueError(
                f"bracket key {key!r} must be two of the letters X, Y, Z"
            )
        i, j = _LETTERS[letters[0]], _LETTERS[letters[1]]
        if i == j:
            raise ValueError(f"bracket key {key!r} repeats a basis letter")
        vec = _parse_vector3(value, f"bracket {key!r}")
        if (j, i) in seen:
            if not np.array_equal(seen[(j, i)], -vec):
                raise ValueError(
                    f"brackets {letters[1]}{letters[0]} and {letters} are "
                    "inconsistent: they must be exact negatives"
                )
            continue
        seen[(i, j)] = vec
        c[i, j, :] = vec
        c[j, i, :] = -vec
    return StructureConstants(c)


def parse_algebra_document(doc) -> tuple[str | None, StructureConstants, MetricSpec]:
    """Validate a JSON algebra document into (name, constants, metric)."""
    if not isinstance(doc, dict):
        raise ValueError("algebra document must be a JSON object")
    unknown = set(doc) - {"name", "c", "metric", "params"}
    if unknown:
        raise ValueError(f"unknown document fields: {', '.join(sorted(unknown))}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("name must be a string")
    if "c" not in doc:
        raise ValueError("document lacks the structure-constant field 'c'")
    spec = doc["c"]
    if isinstance(spec, dict):
        sc = _constants_from_sparse(spec)
    else:
        arr = np.asarray(spec, dtype=float)
        if arr.shape != (DIM, DIM, DIM):
            raise ValueError(
                f"'c' must be a {DIM}x{DIM}x{DIM} array or a bracket map"
            )
        sc = StructureConstants(arr)
    if "metric" in doc and doc["metric"] is not None:
        g = np.asarray(doc["metric"], dtype=float)
        metric = MetricSpec(g)
    else:
        metric = MetricSpec.identity()
    params = doc.get("params")
    if params is not None:
        if not isinstance(params, dict) or set(params) - {"alpha"}:
            raise ValueError("params may only carry an 'alpha' number")
        if "alpha" in params and not isinstance(params["alpha"], (int, float)):
            raise ValueError("params.alpha must be a number")
    return name, sc, metric


def document_from_entry(entry: CatalogEntry) -> dict:
    """Full-precision document for a catalog entry; re-parses bit-for-bit."""
    doc = {
        "name": entry.name,
        "c": entry.constants.c.tolist(),
        "metric": entry.metric.g.tolist(),
    }
    if entry.alpha is not None:
        doc["params"] = {"alpha": entry.alpha}
    return doc


def _round_floats(obj, digits: int = 12):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def render_json(doc: dict) -> str:
    """Deterministic JSON rendering at 12 significant digits."""
    return json.dumps(_round_floats(doc), indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(float(x)) for x in v) + "]"


def _load_json_file(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _with_alpha(name: str, alpha: float | None) -> str:
    return name if alpha is None else f"{name}(alpha={alpha:g})"


def _resolve_algebra(args) -> tuple[str | None, StructureConstants, MetricSpec]:
    """Shared input plumbing for classify/curvature/foliations."""
    if args.group is not None:
        entry = catalog(args.group, args.alpha)
        name = _with_alpha(entry.name, entry.alpha)
        sc, metric = entry.constants, entry.metric
    else:
        if args.alpha is not None:
            raise ValueError("--alpha is only meaningful with --group")
        try:
            doc = _load_json_file(args.input)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {args.input}: {exc}") from None
        name, sc, metric = parse_algebra_document(doc)
    if args.metric is not None:
        metric = MetricSpec(np.asarray(_load_json_file(args.metric), dtype=float))
    residual = jacobi_residual(sc)
    if residual > args.tol:
        raise ValueError(
            f"not a Lie algebra: Jacobi residual {residual:.3e} exceeds {args.tol:.3e}"
        )
    return name, orthonormalize(sc, metric), metric


def _type_doc(bt: BianchiType) -> dict:
    return {"type": bt.tag, "alpha": bt.param}


def cmd_catalog(args) -> int:
    entries = catalog_info()
    if args.json:
        sys.stdout.write(render_json({"entries": entries}))
        return 0
    print(f"{len(entries)} built-in groups (identity metric):")
    for info in entries:
        alpha = f"  [alpha: {info['alpha']}]" if info["alpha"] else ""
        print(f"  {info['name']:<6} {info['brackets']}{alpha}")
    return 0


def cmd_classify(args) -> int:
    name, sc, _ = _resolve_algebra(args)
    bt = classify(sc, tol=args.tol)
    if args.json:
        doc = {"name": name, **_type_doc(bt)}
        sys.stdout.write(render_json(doc))
        return 0
    if name:
        print(f"algebra: {name}")
    print(f"Bianchi type: {bt}")
    return 0


def cmd_curvature(args) -> int:
    name, sc, _ = _resolve_algebra(args)
    rep = curvature(sc)
    doc = {
        "name": name,
        "ricci": rep.ricci.tolist(),
        "ricci_spectrum": [
            {"value": v, "multiplicity": m} for v, m in rep.ricci_spectrum
        ],
        "scalar": rep.scalar,
        "sectional_basis": list(rep.sectional_basis),
        "constant_curvature": rep.constant_curvature,
    }
    if args.json:
        sys.stdout.write(render_json(doc))
        return 0
    if name:
        print(f"algebra: {name}")
    print("Ricci tensor (orthonormal basis):")
    for row in rep.ricci:
        print("  " + _fmt_vec(row))
    spectrum = ", ".join(f"{_fmt(v)} (x{m})" for v, m in rep.ricci_spectrum)
    print(f"Ricci spectrum: {spectrum}")
    print(f"scalar curvature: {_fmt(rep.scalar)}")
    k01, k02, k12 = rep.sectional_basis
    print(
        "sectional curvatures K(e0,e1), K(e0,e2), K(e1,e2): "
        f"{_fmt(k01)}, {_fmt(k02)}, {_fmt(k12)}"
    )
    if rep.constant_curvature is not None:
        print(f"constant curvature {_fmt(rep.constant_curvature)}")
    else:
        print("not constant curvature")
    return 0


def cmd_foliations(args) -> int:
    name, sc, _ = _resolve_algebra(args)
    rep = search_directions(sc, lattice=args.lattice, tol=args.tol)
    if args.json:
        directions = [
            {
                "direction": cand.direction.tolist(),
                "geodesic_residual": cand.geodesic_residual,
                "conformal_residual": cand.conformal_residual,
                "adapted": dataclasses.asdict(cand.adapted),
                "family_type": cand.family.tag,
                "family_alpha": cand.family.param,
            }
            for cand in rep.directions
        ]
        doc = {
            "name": name,
            "constant_curvature": rep.constant_curvature,
            "admits": rep.admits,
            "lattice_size": rep.lattice_size,
            "lattice_min_residual": rep.lattice_min_residual,
            "directions": directions,
        }
        sys.stdout.write(render_json(doc))
        return 0
    if name:
        print(f"algebra: {name}")
    if rep.constant_curvature:
        print(
            "constant curvature; admits harmonic morphisms "
            "(a continuum of conformal foliations by geodesics exists; "
            "directions are not enumerated)"
        )
        return 0
    if not rep.admits:
        print(
            "no conformal foliation by geodesics; "
            "does not admit harmonic morphisms with this metric"
        )
        print(
            f"minimum total residual over {rep.lattice_size} lattice points: "
            f"{_fmt(rep.lattice_min_residual)}"
        )
        return 0
    count = len(rep.directions)
    print(f"{count} direction{'s' if count != 1 else ''} found; admits harmonic morphisms")
    for cand in rep.directions:
        print(f"  direction {_fmt_vec(cand.direction)}")
        print(
            f"    residuals: geodesic {_fmt(cand.geodesic_residual)}, "
            f"conformal {_fmt(cand.conformal_residual)}"
        )
        print(f"    adapted (a, b, x, y, z): {_fmt_vec(cand.adapted.as_tuple())}")
        print(f"    family type: {cand.family}")
    return 0


# (group, alpha) of every catalog row that verify-paper checks; the expected
# Bianchi types come from the catalog itself.
_CLASSIFICATION_ROWS = (
    ("R3", None),
    ("Nil3", None),
    ("H2xR", None),
    ("G4", None),
    ("H3", None),
    ("Sol3", 0.5),
    ("Sol3", 1.0),
    ("Sol3", 2.0),
    ("G7", 0.0),
    ("G7", 1.0),
    ("G7", 2.0),
    ("SL2R~", None),
    ("SU2", None),
)

_FAMILY_UNION = frozenset({"I", "II", "III", "V", "VII", "VIII", "IX"})


def _existence_rows(admits: bool) -> list[tuple[str, CatalogEntry]]:
    """(label, entry) of the rows whose type admits, or fails to admit, a
    conformal foliation by geodesics, as the classification theorem says."""
    entries = [catalog(group, alpha) for group, alpha in _CLASSIFICATION_ROWS]
    return [
        (f"{_with_alpha(e.bianchi[0], e.alpha)} [{e.name}]", e)
        for e in entries
        if (e.bianchi[0] in _FAMILY_UNION) == admits
    ]


def _verify_families(seed: int) -> dict:
    checks = []
    families = enumerate_families()
    union = frozenset().union(*(f.attainable_types for f in families))
    checks.append(
        {
            "label": "three families, attainable union excludes IV and VI",
            "ok": len(families) == 3
            and union == _FAMILY_UNION
            and not union & {"IV", "VI"},
            "detail": "union = {" + ", ".join(sorted(union)) + "}",
        }
    )
    rng = np.random.default_rng(seed)
    worst_constraint = 0.0
    agree = True
    for family in families:
        for _ in range(100):
            params = family.sample(rng)
            worst_constraint = max(worst_constraint, jacobi_constraints(params))
            bt = classify_family(params)
            if bt.tag not in family.attainable_types:
                agree = False
            if not same_type(classify(adapted_constants(params)), bt):
                agree = False
    checks.append(
        {
            "label": "300 family samples satisfy constraints, types attainable,"
            " classifiers agree",
            "ok": worst_constraint <= 1e-12 and agree,
            "detail": f"worst constraint residual {worst_constraint:.3e}",
        }
    )
    return _section("constraint families", checks)


def _verify_positives(lattice: int) -> dict:
    checks = []
    for label, entry in _existence_rows(admits=True):
        rep = search_directions(entry.constants, lattice=lattice)
        limit = ACCEPT_RESIDUAL_SQ * float(np.sum(entry.constants.c**2))
        if rep.constant_curvature:
            geo, conf = residuals(entry.constants, np.array([0.0, 0.0, 1.0]))
            total = geo * geo + conf * conf
            ok = total <= limit
            detail = f"constant curvature; certificate residual {total:.3e}"
        else:
            ok = rep.admits and all(
                c.total_residual_sq <= limit for c in rep.directions
            )
            best = min((c.total_residual_sq for c in rep.directions), default=np.inf)
            tags = {cand.family.tag for cand in rep.directions}
            ok = ok and tags == {entry.bianchi[0]}
            detail = (
                f"{len(rep.directions)} direction(s); best residual {best:.3e}; "
                f"family type {'/'.join(sorted(tags)) or 'none'}"
            )
        checks.append({"label": label, "ok": bool(ok), "detail": detail})
    return _section("existence positives", checks)


def _verify_negatives(samples: int, seed: int, lattice: int) -> dict:
    if samples == 0:
        return {
            "name": "non-existence sampling",
            "status": "SKIPPED",
            "checks": [],
        }
    checks = []
    for label, entry in _existence_rows(admits=False):
        identity, sampled = admits_harmonic_morphism(
            entry.constants, trials=samples, seed=seed, lattice=lattice
        )
        hits = {"the identity metric": identity, "a sampled metric": sampled}
        admitting = " and ".join(which for which, hit in hits.items() if hit)
        checks.append(
            {
                "label": label,
                "ok": not admitting,
                "detail": f"identity + {samples} sampled metrics, "
                f"{admitting or 0} admitting",
            }
        )
    return _section("non-existence sampling", checks)


def _verify_classifications(overrides) -> dict:
    overrides = overrides or {}
    checks = []
    for group, alpha in _CLASSIFICATION_ROWS:
        entry = catalog(group, alpha)
        got = classify(overrides.get(group) or entry.constants)
        expected = BianchiType(*entry.bianchi)
        ok = same_type(got, expected)
        checks.append(
            {
                "label": _with_alpha(group, alpha),
                "ok": bool(ok),
                "detail": f"classified {got}, expected {expected}",
            }
        )
    return _section("catalog classification", checks)


def _section(name: str, checks: list[dict]) -> dict:
    status = "PASS" if all(c["ok"] for c in checks) else "FAIL"
    return {"name": name, "status": status, "checks": checks}


def run_verification(
    samples: int = 100,
    seed: int = 42,
    lattice: int = LATTICE_DEFAULT,
    classification_overrides: dict[str, StructureConstants] | None = None,
) -> tuple[dict, bool]:
    """Full verification report; ``ok`` is True when no section fails.

    ``classification_overrides`` substitutes structure constants for named
    catalog groups in the classification section (used to demonstrate that a
    wrong bracket table is caught, not silently accepted).
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    sections = [
        _verify_families(seed),
        _verify_positives(lattice),
        _verify_negatives(samples, seed, lattice),
        _verify_classifications(classification_overrides),
    ]
    ok = all(section["status"] != "FAIL" for section in sections)
    report = {
        "samples": samples,
        "seed": seed,
        "lattice": lattice,
        "sections": sections,
        "overall": "PASS" if ok else "FAIL",
    }
    return report, ok


def cmd_verify_paper(args) -> int:
    report, ok = run_verification(
        samples=args.samples, seed=args.seed, lattice=args.lattice
    )
    if args.json:
        sys.stdout.write(render_json(report))
        return 0 if ok else 2
    for section in report["sections"]:
        print(f"{section['name']}: {section['status']}")
        for check in section["checks"]:
            mark = "PASS" if check["ok"] else "FAIL"
            print(f"  {check['label']}: {mark} ({check['detail']})")
    print(f"overall: {report['overall']}")
    return 0 if ok else 2


def _add_input_flags(sub: argparse.ArgumentParser):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="path to a JSON algebra document")
    source.add_argument(
        "--group",
        help=f"catalog group name ({', '.join(catalog_names())})",
    )
    sub.add_argument(
        "--alpha", type=float, default=None, help="parameter for Sol3 / G7"
    )
    sub.add_argument(
        "--metric",
        help="path to a 3x3 JSON metric matrix (overrides the document metric)",
    )
    sub.add_argument(
        "--tol",
        type=float,
        default=JACOBI_TOL,
        help="Jacobi-residual acceptance tolerance (default %(default)g)",
    )


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of :func:`main`, built once and then reused."""
    parser = _Parser(
        prog="lie3geo",
        description="Left-invariant geometry of 3D Lie groups: Bianchi types, "
        "curvature, and conformal foliations by geodesics.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("catalog", help="list the built-in groups")
    sub.set_defaults(func=cmd_catalog)

    sub = commands.add_parser("classify", help="Bianchi type of an algebra")
    _add_input_flags(sub)
    sub.set_defaults(func=cmd_classify)

    sub = commands.add_parser("curvature", help="curvature of a metric algebra")
    _add_input_flags(sub)
    sub.set_defaults(func=cmd_curvature)

    sub = commands.add_parser(
        "foliations", help="search conformal foliations by geodesics"
    )
    _add_input_flags(sub)
    sub.add_argument(
        "--lattice",
        type=int,
        default=LATTICE_DEFAULT,
        help="sphere lattice size (default %(default)s)",
    )
    sub.set_defaults(func=cmd_foliations)

    sub = commands.add_parser(
        "verify-paper",
        help="verify the existence classification and the catalog types",
    )
    sub.add_argument(
        "--samples",
        type=int,
        default=100,
        help="random metrics per negative entry, 0 skips (default %(default)s)",
    )
    sub.add_argument("--seed", type=int, default=42, help="metric sampling seed")
    sub.add_argument(
        "--lattice",
        type=int,
        default=LATTICE_DEFAULT,
        help="sphere lattice size (default %(default)s)",
    )
    sub.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
