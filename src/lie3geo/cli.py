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
    _require_lie,
    catalog,
    catalog_info,
    catalog_names,
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
    if doc.get("metric") is not None:
        metric = MetricSpec(np.asarray(doc["metric"], dtype=float))
    else:
        metric = MetricSpec.identity()
    params = doc.get("params")
    if params is not None:
        if not isinstance(params, dict) or set(params) - {"alpha"}:
            raise ValueError("params may only carry an 'alpha' number")
        if "alpha" in params and not isinstance(params["alpha"], (int, float)):
            raise ValueError("params.alpha must be a number")
    return name, sc, metric


def _round_floats(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
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


def _resolve_algebra(args) -> tuple[str | None, StructureConstants]:
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
    _require_lie(sc, args.tol)
    return name, orthonormalize(sc, metric)


def cmd_catalog(args):
    entries = catalog_info()

    def text():
        yield f"{len(entries)} built-in groups (identity metric):"
        for info in entries:
            alpha = f"  [alpha: {info['alpha']}]" if info["alpha"] else ""
            yield f"  {info['name']:<6} {info['brackets']}{alpha}"

    return {"entries": entries}, text(), 0


def cmd_classify(args):
    name, sc = _resolve_algebra(args)
    bt = classify(sc, tol=args.tol)

    def text():
        yield f"Bianchi type: {bt}"

    return {"name": name, "type": bt.tag, "alpha": bt.param}, text(), 0


def cmd_curvature(args):
    name, sc = _resolve_algebra(args)
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

    def text():
        yield "Ricci tensor (orthonormal basis):"
        for row in rep.ricci:
            yield "  " + _fmt_vec(row)
        spectrum = ", ".join(f"{_fmt(v)} (x{m})" for v, m in rep.ricci_spectrum)
        yield f"Ricci spectrum: {spectrum}"
        yield f"scalar curvature: {_fmt(rep.scalar)}"
        yield "sectional curvatures K(e0,e1), K(e0,e2), K(e1,e2): " + ", ".join(
            map(_fmt, rep.sectional_basis)
        )
        if rep.constant_curvature is not None:
            yield f"constant curvature {_fmt(rep.constant_curvature)}"
        else:
            yield "not constant curvature"

    return doc, text(), 0


def cmd_foliations(args):
    name, sc = _resolve_algebra(args)
    rep = search_directions(sc, lattice=args.lattice, tol=args.tol)
    doc = {
        "name": name,
        "constant_curvature": rep.constant_curvature,
        "admits": rep.admits,
        "lattice_size": rep.lattice_size,
        "lattice_min_residual": rep.lattice_min_residual,
        "directions": [
            {
                "direction": cand.direction.tolist(),
                "geodesic_residual": cand.geodesic_residual,
                "conformal_residual": cand.conformal_residual,
                "adapted": dataclasses.asdict(cand.adapted),
                "family_type": cand.family.tag,
                "family_alpha": cand.family.param,
            }
            for cand in rep.directions
        ],
    }

    def text():
        if rep.constant_curvature:
            yield (
                "constant curvature; admits harmonic morphisms "
                "(a continuum of conformal foliations by geodesics exists; "
                "directions are not enumerated)"
            )
            return
        if not rep.admits:
            yield (
                "no conformal foliation by geodesics; "
                "does not admit harmonic morphisms with this metric"
            )
            yield (
                f"minimum total residual over {rep.lattice_size} lattice points: "
                f"{_fmt(rep.lattice_min_residual)}"
            )
            return
        count = len(rep.directions)
        yield f"{count} direction{'s' if count != 1 else ''} found; admits harmonic morphisms"
        for cand in rep.directions:
            yield f"  direction {_fmt_vec(cand.direction)}"
            yield (
                f"    residuals: geodesic {_fmt(cand.geodesic_residual)}, "
                f"conformal {_fmt(cand.conformal_residual)}"
            )
            yield f"    adapted (a, b, x, y, z): {_fmt_vec(cand.adapted.as_tuple())}"
            yield f"    family type: {cand.family}"

    return doc, text(), 0


# (group, alpha) of every catalog row that verify-paper checks, at sampled
# alphas for Sol3 and G7; the expected types come from the catalog itself.
_SAMPLE_ALPHAS = {"Sol3": (0.5, 1.0, 2.0), "G7": (0.0, 1.0, 2.0)}
_CLASSIFICATION_ROWS = tuple(
    (group, alpha)
    for group in catalog_names()
    for alpha in _SAMPLE_ALPHAS.get(group, (None,))
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
    families = enumerate_families()
    union = frozenset().union(*(f.attainable_types for f in families))
    checks = [
        _check(
            "three families, attainable union excludes IV and VI",
            len(families) == 3 and union == _FAMILY_UNION and not union & {"IV", "VI"},
            "union = {" + ", ".join(sorted(union)) + "}",
        )
    ]
    rng = np.random.default_rng(seed)
    worst_constraint = 0.0
    agree = True
    for family in families:
        for _ in range(100):
            params = family.sample(rng)
            worst_constraint = max(worst_constraint, jacobi_constraints(params))
            bt = classify_family(params)
            agree &= bt.tag in family.attainable_types
            agree &= same_type(classify(adapted_constants(params)), bt)
    checks.append(
        _check(
            "300 family samples satisfy constraints, types attainable,"
            " classifiers agree",
            worst_constraint <= 1e-12 and agree,
            f"worst constraint residual {worst_constraint:.3e}",
        )
    )
    return _section("constraint families", checks)


def _verify_positives() -> dict:
    checks = []
    for label, entry in _existence_rows(admits=True):
        rep = search_directions(entry.constants)
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
        checks.append(_check(label, ok, detail))
    return _section("existence positives", checks)


def _verify_negatives(samples: int, seed: int) -> dict:
    if samples == 0:
        return _section("non-existence sampling", [])
    checks = []
    for label, entry in _existence_rows(admits=False):
        identity, sampled = admits_harmonic_morphism(
            entry.constants, trials=samples, seed=seed
        )
        hits = {"the identity metric": identity, "a sampled metric": sampled}
        admitting = " and ".join(which for which, hit in hits.items() if hit)
        checks.append(
            _check(
                label,
                not admitting,
                f"identity + {samples} sampled metrics, {admitting or 0} admitting",
            )
        )
    return _section("non-existence sampling", checks)


def _verify_classifications() -> dict:
    checks = []
    for group, alpha in _CLASSIFICATION_ROWS:
        entry = catalog(group, alpha)
        got = classify(entry.constants)
        expected = BianchiType(*entry.bianchi)
        checks.append(
            _check(
                _with_alpha(group, alpha),
                same_type(got, expected),
                f"classified {got}, expected {expected}",
            )
        )
    return _section("catalog classification", checks)


def _check(label: str, ok, detail: str) -> dict:
    return {"label": label, "ok": bool(ok), "detail": detail}


def _section(name: str, checks: list[dict]) -> dict:
    """A report section; one without checks was skipped."""
    status = "PASS" if all(c["ok"] for c in checks) else "FAIL"
    if not checks:
        status = "SKIPPED"
    return {"name": name, "status": status, "checks": checks}


def run_verification(samples: int = 100, seed: int = 42) -> tuple[dict, bool]:
    """Full verification report; ``ok`` is True when no section fails."""
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    sections = [
        _verify_families(seed),
        _verify_positives(),
        _verify_negatives(samples, seed),
        _verify_classifications(),
    ]
    ok = all(section["status"] != "FAIL" for section in sections)
    report = {
        "samples": samples,
        "seed": seed,
        "lattice": LATTICE_DEFAULT,  # searched by the positives; decides nothing
        "sections": sections,
        "overall": "PASS" if ok else "FAIL",
    }
    return report, ok


def cmd_verify_paper(args):
    report, ok = run_verification(samples=args.samples, seed=args.seed)

    def text():
        for section in report["sections"]:
            yield f"{section['name']}: {section['status']}"
            for check in section["checks"]:
                mark = "PASS" if check["ok"] else "FAIL"
                yield f"  {check['label']}: {mark} ({check['detail']})"
        yield f"overall: {report['overall']}"

    return report, text(), 0 if ok else 2


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
        help="Jacobi-residual acceptance tolerance, relative to |c|_F^2 "
        "(default %(default)g)",
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
    sub.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors 1
        return exc.code
    try:
        # text is a generator, so --json formats none of it
        doc, text, code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(render_json(doc))
        return code
    if doc.get("name"):  # classify, curvature and foliations name the algebra
        text = [f"algebra: {doc['name']}", *text]
    sys.stdout.write("".join(f"{line}\n" for line in text))
    return code


def entrypoint() -> None:
    sys.exit(main())
