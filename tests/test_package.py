import lie3geo
from lie3geo import algebra, bianchi, foliation, geometry

# The names the package exported when it listed them by hand.
_EXPORTED = {
    algebra: [
        "DIM", "JACOBI_TOL", "CatalogEntry", "MetricSpec", "NotLieAlgebraError",
        "StructureConstants", "ad_matrix", "bracket", "catalog", "catalog_info",
        "catalog_names", "change_basis", "constants_from_brackets",
        "jacobi_residual", "killing_form", "orthonormal_frame", "orthonormalize",
        "trace_form",
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
    assert sum(len(names) for names in _EXPORTED.values()) == 41
    for module, names in _EXPORTED.items():
        for name in names:
            assert name in lie3geo.__all__, name
            assert getattr(lie3geo, name) is getattr(module, name), name
    assert "__version__" in lie3geo.__all__
    assert len(set(lie3geo.__all__)) == len(lie3geo.__all__)
    for name in lie3geo.__all__:
        assert hasattr(lie3geo, name), name
