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

Sparse keys name ordered basis pairs with the letters X, Y, Z, in any case;
unspecified brackets are zero.  Giving one ordered pair twice (as "XY" and
"xy") is rejected, and so is giving both "XY" and "YX" with values that are
not exact negatives.  Every entry of ``c`` and ``metric`` must be a number;
a string or a boolean is refused, not converted.
``--tol`` takes a finite nonnegative number.  ``--json foliations`` gives
``lattice_min_residual`` (the floor of the squared residual over the
certificate lattice) only when no direction is found, and ``null`` otherwise.
Exit codes: 0 success, 1 invalid input, 2 verification failure.  All output
is deterministic for fixed flags, and ``--json`` switches to a single
machine-readable document.

The command line is defined once, in the ``_COMMANDS`` table, from which
``build_parser`` builds the argparse parser.  ``main`` first reads a plain
command line off that table in one pass (``_plain_args``), without
building argparse: an optional ``--json``, then a command, then its flags,
each an exact option string given once, and each value one token that does
not start with ``-``, converted by the flag's own type.  It gives the
namespace ``parse_args`` would.  Every other form goes to argparse, which
alone prints help and usage errors and sets their exit codes: ``-h``,
abbreviated flags, ``--flag=value``, ``--``, negative numbers, repeated
flags, values a type refuses, exclusive flags together and missing ones.
"""

from __future__ import annotations

import argparse
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
    _require_scaled_lie,
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
from .geometry import _QUADRATIC, _curvature

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


def _is_number(value) -> bool:
    """Whether a JSON value is a number.  The type is compared exactly,
    because ``true`` and ``false`` load as bool, a subclass of int."""
    return type(value) in (int, float)


def _all_numbers(value, rank: int) -> bool:
    """Whether ``value`` is a number or nested lists, at most ``rank`` deep,
    of numbers.  Checked one nesting level at a time, so ``rank`` bounds the
    work however deep ``value`` nests."""
    level = [value]
    while level:
        nested = []
        for v in level:
            # the exact types of _is_number, tested inline, floats first
            kind = type(v)
            if kind is float or kind is int:
                continue
            if rank == 0 or not isinstance(v, list):
                return False
            nested.extend(v)
        level, rank = nested, rank - 1
    return True


def _floats(value, label: str, rank: int) -> np.ndarray:
    """``value`` as a float array of at most ``rank`` dimensions, or a
    ValueError naming ``label``.

    The leaves are checked first, because numpy reads ``"1"`` and ``true``
    as 1.0.  An integer beyond the float range makes numpy raise
    OverflowError, and ragged nesting makes it raise ValueError; both are
    refused with messages naming ``label``.
    """
    if not _all_numbers(value, rank):
        raise ValueError(f"{label} must be an array of numbers")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{label} must be finite") from None
    except ValueError:
        raise ValueError(f"{label} must be a rectangular array of numbers") from None


def _parse_vector3(value, label: str) -> np.ndarray:
    arr = _floats(value, label, 1)
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
        if (i, j) in seen:
            raise ValueError(
                f"bracket {letters} is given twice: keys ignore case and spaces"
            )
        vec = _parse_vector3(value, f"bracket {key!r}")
        seen[(i, j)] = vec
        if (j, i) in seen:
            if not np.array_equal(seen[(j, i)], -vec):
                raise ValueError(
                    f"brackets {letters[1]}{letters[0]} and {letters} are "
                    "inconsistent: they must be exact negatives"
                )
            continue
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
        arr = _floats(spec, "'c'", 3)
        if arr.shape != (DIM, DIM, DIM):
            raise ValueError(
                f"'c' must be a {DIM}x{DIM}x{DIM} array or a bracket map"
            )
        sc = StructureConstants(arr)
    if doc.get("metric") is not None:
        metric = MetricSpec(_floats(doc["metric"], "metric", 2))
    else:
        metric = MetricSpec.identity()
    params = doc.get("params")
    if params is not None:
        if not isinstance(params, dict) or set(params) - {"alpha"}:
            raise ValueError("params may only carry an 'alpha' number")
        if "alpha" in params and not _is_number(params["alpha"]):
            raise ValueError("params.alpha must be a number")
    return name, sc, metric


def render_json(doc: dict) -> str:
    """Deterministic JSON rendering at 12 significant digits.

    The text is that of ``json.dumps(doc, indent=2, sort_keys=True)`` after
    rounding each float to ``float(f"{x:.12g}")``, written in one walk.
    """
    out: list[str] = []
    _write_json(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(obj, out: list[str], newline: str) -> None:
    """Append ``obj`` to ``out`` as ``render_json`` writes it.  ``newline``
    is a line break and the indentation of the line ``obj`` starts on.
    Tuples are written as lists, and any type JSON lacks is a TypeError.
    Floats, the most common values, are tested first; no type of a later
    branch is a float."""
    if isinstance(obj, float):
        x = float(f"{obj:.12g}")
        # the non-finite floats take the names json.dumps gives them
        if x - x == 0.0:
            out.append(repr(x))
        else:
            out.append("NaN" if x != x else "Infinity" if x > 0 else "-Infinity")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, str):
        out.append(json.encoder.encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep)
            out.append(json.encoder.encode_basestring_ascii(_key_text(key)))
            out.append(": ")
            _write_json(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _key_text(key) -> str:
    """A dict key as ``json.dumps`` names it: a string as it is, and a bool,
    None, int or float (not rounded) as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(float(x)) for x in v) + "]"


def _load_json_file(path: str):
    """The JSON document in ``path``, or a ValueError naming the file when
    it is not JSON (JSON text is UTF-8, RFC 8259) or nests too deeply for
    the parser.

    The file is read as bytes, unbuffered since it is read whole, and
    decoded as UTF-8 in one piece, and a ``\\r\\n`` or lone ``\\r``
    becomes ``\\n``, as a text-mode read does; so the document, and every
    error message with its offsets, is the one ``json.load`` of the file
    opened as UTF-8 text gives.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"invalid JSON in {path}: nested too deeply") from None


def _with_alpha(name: str, alpha: float | None) -> str:
    return name if alpha is None else f"{name}(alpha={alpha:g})"


def _resolve_algebra(args) -> tuple[str | None, StructureConstants]:
    """Parse and orthonormalize the input; each command then checks Jacobi."""
    if args.group is not None:
        entry = catalog(args.group, args.alpha)
        name = _with_alpha(entry.name, entry.alpha)
        sc, metric = entry.constants, entry.metric
    else:
        if args.alpha is not None:
            raise ValueError("--alpha is only meaningful with --group")
        name, sc, metric = parse_algebra_document(_load_json_file(args.input))
    if args.metric is not None:
        metric = MetricSpec(_floats(_load_json_file(args.metric), "--metric file", 2))
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
    rep = _curvature(_require_scaled_lie(sc, args.tol, _QUADRATIC))
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
    rep = search_directions(sc, tol=args.tol)
    doc = {
        "name": name,
        "constant_curvature": rep.constant_curvature,
        "admits": rep.admits,
        "lattice_size": rep.lattice_size,
        # the floor certifies only an empty result, so no witness pays for it
        "lattice_min_residual": None if rep.admits else rep.lattice_min_residual,
        "directions": [
            {
                "direction": cand.direction.tolist(),
                "geodesic_residual": cand.geodesic_residual,
                "conformal_residual": cand.conformal_residual,
                "adapted": dict(
                    zip(("a", "b", "x", "y", "z"), cand.adapted.as_tuple())
                ),
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
    if seed < 0:
        raise ValueError("seed must be nonnegative")
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
        "lattice": LATTICE_DEFAULT,  # the certificate size; no check scans it
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


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite nonnegative number.  NaN would accept
    every bracket and inf any finite residual, so both are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    # written so that NaN fails it too
    if not (0.0 <= value < float("inf")):
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {text!r}"
        )
    return value


# Each flag maps to (type, default, help); the type converts its value.
_INPUT_FLAGS = {
    "--input": (str, None, "path to a JSON algebra document"),
    "--group": (str, None, f"catalog group name ({', '.join(catalog_names())})"),
    "--alpha": (float, None, "parameter for Sol3 / G7"),
    "--metric": (
        str,
        None,
        "path to a 3x3 JSON metric matrix (overrides the document metric)",
    ),
    "--tol": (
        _tolerance,
        JACOBI_TOL,
        "Jacobi-residual acceptance tolerance, relative to |c|_F^2 "
        "(default %(default)g)",
    ),
}
# A command taking _INPUT_FLAGS takes exactly one of these two.
_SOURCE_FLAGS = ("--input", "--group")

# The grammar of the command line: each command maps to (handler, help,
# flags).  build_parser and the plain pass both read it.
_COMMANDS = {
    "catalog": (cmd_catalog, "list the built-in groups", {}),
    "classify": (cmd_classify, "Bianchi type of an algebra", _INPUT_FLAGS),
    "curvature": (cmd_curvature, "curvature of a metric algebra", _INPUT_FLAGS),
    "foliations": (
        cmd_foliations,
        "search conformal foliations by geodesics",
        _INPUT_FLAGS,
    ),
    "verify-paper": (
        cmd_verify_paper,
        "verify the existence classification and the catalog types",
        {
            "--samples": (
                int,
                100,
                "random metrics per negative entry, 0 skips (default %(default)s)",
            ),
            "--seed": (int, 42, "metric sampling seed"),
        },
    ),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of :func:`main`, built once from ``_COMMANDS``
    and then reused."""
    parser = _Parser(
        prog="lie3geo",
        description="Left-invariant geometry of 3D Lie groups: Bianchi types, "
        "curvature, and conformal foliations by geodesics.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, flags) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        source = sub
        if flags is _INPUT_FLAGS:
            source = sub.add_mutually_exclusive_group(required=True)
        for flag, (kind, default, flag_help) in flags.items():
            owner = source if flag in _SOURCE_FLAGS else sub
            owner.add_argument(flag, type=kind, default=default, help=flag_help)
        sub.set_defaults(func=handler)
    return parser


def _plain_args(argv: list) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for a plain ``argv``, read off
    ``_COMMANDS`` without building argparse; None for any other.

    A plain ``argv`` is an optional ``--json``, a command, then that
    command's flags, each an exact option string given once with one value
    that does not start with ``-`` and that the flag's type converts, and
    exactly one of ``--input`` and ``--group`` where the command takes them.
    """
    if not all(isinstance(token, str) for token in argv):
        return None
    as_json = argv[:1] == ["--json"]
    head = 1 if as_json else 0
    if head == len(argv) or argv[head] not in _COMMANDS:
        return None
    handler, _, flags = _COMMANDS[argv[head]]
    rest = argv[head + 1 :]
    if len(rest) % 2:
        return None
    given = {}
    for flag, value in zip(rest[::2], rest[1::2]):
        if flag not in flags or flag in given or value.startswith("-"):
            return None
        try:
            given[flag] = flags[flag][0](value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    source, other = _SOURCE_FLAGS
    if flags is _INPUT_FLAGS and (source in given) == (other in given):
        return None  # both source flags, or neither
    args = argparse.Namespace(json=as_json, command=argv[head], func=handler)
    for flag, (_, default, _) in flags.items():
        # the attribute argparse names the flag's value by
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
