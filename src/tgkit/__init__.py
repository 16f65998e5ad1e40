"""Totally geodesic hypersurface toolkit for metric Lie algebras and charts."""

from .catalog import (CATALOG_NAMES, abelian, catalog_lookup, euclidean_metric,
                      heisenberg, hyperbolic_plane, nonhomo, nonhomo_metric,
                      sl2, twisted_h2, twisted_h2_cartesian)
from .config import DEFAULT, Tolerances
from .coord_engine import (CoordinateMetric, EikonalResiduals,
                           GeodesicTrajectory, ScalarField, TwistedProductSpec,
                           build_twisted_product, build_warped_product,
                           christoffel, eikonal_residuals,
                           export_trajectory_csv, frenet_numeric,
                           geodesic_integrate, riemann_at,
                           second_fundamental_form, sectional_at,
                           twisting_ode_residual, twisting_phi)
from .errors import (AlgebraFileError, BadParams, DegeneratePlane,
                     DimensionMismatch, IdealResidualExceeded, IrregularCurve,
                     JacobiViolation, MetricDegenerate, NonFiniteInput, NonUnitVector,
                     NotHelixOrderTwo, NotPositiveDefinite, NotRecognized,
                     NotTotallyGeodesic, TgkitError, UnknownName)
from .lie_core import (ConnectionTable, CurvatureData, LieAlgebra,
                       MetricLieAlgebra, Subspace, complement_onb,
                       curvature_tensor, jacobi_residual, levi_civita,
                       sectional, wedge_coords)
from .tg_analysis import (CaseTag, ClassificationReport, FrenetData,
                          HelixWitness, SearchConfig, SearchResult,
                          SubspaceCheck, SubspaceWitness, classify_case,
                          codazzi_residual, frenet_orbit, helix_witness,
                          hyperplane_tg_residual, search_tg_hyperplanes,
                          tg_subspace_check)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES", "DEFAULT", "Tolerances",
    "TgkitError", "DimensionMismatch", "JacobiViolation",
    "NotPositiveDefinite", "DegeneratePlane", "NonUnitVector",
    "NotHelixOrderTwo", "IdealResidualExceeded", "NotRecognized",
    "NotTotallyGeodesic", "MetricDegenerate", "IrregularCurve",
    "UnknownName", "BadParams", "AlgebraFileError", "NonFiniteInput",
    "LieAlgebra", "MetricLieAlgebra", "Subspace", "ConnectionTable",
    "CurvatureData", "jacobi_residual", "levi_civita",
    "curvature_tensor", "sectional", "wedge_coords", "complement_onb",
    "SubspaceCheck", "SubspaceWitness", "tg_subspace_check",
    "hyperplane_tg_residual", "SearchConfig", "SearchResult",
    "search_tg_hyperplanes", "FrenetData", "frenet_orbit", "HelixWitness",
    "helix_witness", "CaseTag", "codazzi_residual",
    "ClassificationReport", "classify_case",
    "ScalarField", "CoordinateMetric", "christoffel", "GeodesicTrajectory",
    "geodesic_integrate", "export_trajectory_csv",
    "second_fundamental_form", "build_warped_product",
    "TwistedProductSpec", "twisting_phi", "build_twisted_product",
    "twisting_ode_residual", "EikonalResiduals", "eikonal_residuals",
    "riemann_at", "sectional_at", "frenet_numeric",
    "sl2", "nonhomo", "heisenberg", "abelian", "euclidean_metric",
    "hyperbolic_plane", "nonhomo_metric", "twisted_h2",
    "twisted_h2_cartesian", "catalog_lookup",
]
