import ast
import importlib
from pathlib import Path

import lie3geo
from lie3geo import algebra, bianchi, foliation, geometry

# The names the package exported when it listed them by hand.
_EXPORTED = {
    algebra: [
        "DIM", "JACOBI_TOL", "CatalogEntry", "MetricSpec", "NotLieAlgebraError",
        "StructureConstants", "catalog", "catalog_info", "catalog_names",
        "change_basis", "constants_from_brackets", "jacobi_residual",
        "orthonormal_frame", "orthonormalize",
    ],
    bianchi: [
        "BianchiType", "MilnorDecomposition", "classify", "milnor_decompose",
        "same_type",
    ],
    geometry: [
        "ConnectionCoefficients", "CurvatureReport", "connection", "curvature",
        "sectional",
    ],
    foliation: [
        "AdaptedBracketParams", "FoliationCandidate", "FoliationFamily",
        "FoliationReport", "adapt_basis", "adapted_constants",
        "admits_harmonic_morphism", "classify_family", "enumerate_families",
        "jacobi_constraints", "random_metrics", "residuals", "search_directions",
    ],
}


def test_package_exports_module_names():
    assert sum(len(names) for names in _EXPORTED.values()) == 37
    for module, names in _EXPORTED.items():
        for name in names:
            assert name in lie3geo.__all__, name
            assert getattr(lie3geo, name) is getattr(module, name), name
    assert "__version__" in lie3geo.__all__
    assert len(set(lie3geo.__all__)) == len(lie3geo.__all__)
    for name in lie3geo.__all__:
        assert hasattr(lie3geo, name), name


def _traced_names() -> tuple[str, ...]:
    """``TRACED`` of the benchmark's span recorder, read off the text of
    ``bench/tracing.py`` so that nothing under ``bench/`` is imported."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


def test_traced_benchmark_names_resolve():
    # the traced benchmark run looks each of these up with getattr and fails
    # on a missing one, a failure no other test here would show
    names = _traced_names()
    assert names
    for name in names:
        module_name, fn_name = name.split(".")
        module = importlib.import_module(f"lie3geo.{module_name}")
        assert callable(getattr(module, fn_name, None)), name


def test_search_report_has_what_the_traced_run_reads():
    # the traced run's observer reads these off every search report that is
    # not of constant curvature
    report = foliation.search_directions(algebra.catalog("G4").constants)
    assert not report.constant_curvature
    assert report.lattice_size > 0
    assert report.lattice_min_residual > 0.0
    assert report.directions == ()


def _dotted(node) -> str | None:
    """``a.b.c`` of a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _linalg_wrapper_calls(source: str) -> list[str]:
    """The numpy.linalg calls inside function bodies of ``source``, other
    than of its exception class, and every name imported from numpy.linalg
    other than the gufunc module."""
    found, calls = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [a.name for a in node.names if a.name != "_umath_linalg"]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            calls.update(c for c in ast.walk(node) if isinstance(c, ast.Call))
    for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
        name = _dotted(call.func)
        if name and name.startswith(("np.linalg.", "numpy.linalg.")):
            if not name.endswith(".LinAlgError"):
                found.append(f"{name} (line {call.lineno})")
    return found


def test_functions_call_no_numpy_linalg_wrapper():
    # every per-op factorisation goes through algebra._lapack and every norm
    # through algebra._norm; module level may call a wrapper once at import,
    # as foliation does for _INVERSE
    package = Path(lie3geo.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert _linalg_wrapper_calls(path.read_text(encoding="utf-8")) == [], path.name
    assert "np.linalg.inv(" in (package / "foliation.py").read_text(encoding="utf-8")
    # the check sees a wrapper call in a function body, not at module level
    probe = "x = np.linalg.inv(a)\ndef f(a):\n    return g(lambda: np.linalg.svd(a))\n"
    assert _linalg_wrapper_calls(probe) == ["np.linalg.svd (line 3)"]
    assert _linalg_wrapper_calls("from numpy.linalg import norm") == ["norm"]
    # numpy's private names are the gufunc module and the two names of the
    # error-state machinery that np.errstate itself uses, each imported only
    # inside a try whose handler falls back to the public wrappers when a
    # numpy lacks it
    private = {
        (node.module, alias.name, id(node) in _guarded_nodes(tree))
        for path in sorted(package.glob("*.py"))
        for tree in [ast.parse(path.read_text(encoding="utf-8"))]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.")
        for alias in node.names
    }
    assert private == {
        ("numpy._core._ufunc_config", "_extobj_contextvar", True),
        ("numpy._core._ufunc_config", "_make_extobj", True),
        ("numpy.linalg", "_umath_linalg", True),
    }
    probe = ast.parse(
        "try:\n    from numpy.linalg import _umath_linalg\n"
        "except (ImportError, AttributeError):\n    pass\n"
        "try:\n    import numpy\nexcept ImportError:\n    pass\n"
    )
    imports = [n for n in ast.walk(probe) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [id(n) in _guarded_nodes(probe) for n in imports] == [True, False]


def _guarded_nodes(tree) -> set[int]:
    """The ids of the nodes in the body of each ``try`` of ``tree`` whose
    handlers catch exactly ImportError and AttributeError."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            caught = {_dotted(n) for h in node.handlers for n in ast.walk(h.type)}
            if caught - {None} == {"ImportError", "AttributeError"}:
                guarded.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return guarded


def _lapack_names(source: str) -> list[object]:
    """The gufunc name of every ``_lapack(name, ...)`` call in ``source``:
    the string, or the call's line where the name is not a constant."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _dotted(node.func) in ("_lapack", "algebra._lapack"):
            name = node.args[0] if node.args else None
            is_text = isinstance(name, ast.Constant) and isinstance(name.value, str)
            found.append(name.value if is_text else f"line {node.lineno}")
    return found


def test_lapack_shim_holds_exactly_the_gufuncs_the_package_calls():
    # a gufunc that no call names is dead weight in the shim and in the
    # private numpy names it depends on; a name outside it fails at run time
    assert set(algebra._LAPACK) == {"cholesky_lo", "eigh_lo", "eigvalsh_lo", "svd_s"}
    package = Path(lie3geo.__file__).resolve().parent
    called = set()
    for path in sorted(package.glob("*.py")):
        for name in _lapack_names(path.read_text(encoding="utf-8")):
            assert name in algebra._LAPACK, (path.name, name)
            called.add(name)
    assert called == set(algebra._LAPACK)
    probe = "def f(a, n):\n    return _lapack('svd_f', a), algebra._lapack(n, a)\n"
    assert _lapack_names(probe) == ["svd_f", "line 2"]


def _private_reads(source: str) -> list[str]:
    """Each private name that ``source`` reads off an object or imports
    from outside the package: ``x._name``, ``getattr(x, "_name")`` and
    ``from module import _name``.  Dunder names are not private here."""

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and private(node.attr):
            found.append(f"{_dotted(node) or node.attr} (line {node.lineno})")
        elif isinstance(node, ast.Call) and _dotted(node.func) in ("getattr", "hasattr"):
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and private(str(name.value)):
                found.append(f"{name.value} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [a.name for a in node.names if private(a.name)]
    return sorted(found)


def test_cli_reads_no_private_argparse_name():
    # the plain pass reads the command table, not the parser's internals, so
    # an argparse release that renames them cannot change what it accepts
    source = (Path(lie3geo.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8")
    assert _private_reads(source) == []
    probe = (
        "import argparse\nfrom argparse import _StoreAction\n"
        "def f(parser, action):\n"
        "    kind = argparse._HelpAction\n"
        "    return parser._actions, getattr(action, '_deprecated', ()), kind.__name__\n"
    )
    assert _private_reads(probe) == [
        "_StoreAction",
        "_deprecated (line 5)",
        "argparse._HelpAction (line 4)",
        "parser._actions (line 5)",
    ]
