"""Exact-arithmetic toolkit for lattice polygons whose points share a viewer."""

from .core import Point, Polygon, convex_hull, is_visible
from .transform import (
    Functional,
    UnimodularMap,
    canonical_form,
    has_lattice_segment,
    lattice_diameter,
    lattice_width,
)
from .relaxation import is_maximal, relax, relaxed_lattice
from .classify import (
    HyperellipticForm,
    PanoptigonReport,
    hyperelliptic_count,
    hyperelliptic_normal_form,
    hyperelliptic_panoptigon_predicate,
    hyperelliptic_polygon,
    is_hyperelliptic,
    is_panoptigon,
    standard_triangle,
    trapezoid,
    valid_forms,
)
from .census import (
    CensusRecord,
    ObstructionVerdict,
    big_face_obstruction,
    census_summary,
    enumerate_raw,
    full_panoptigon_census,
    genus1_classes,
    maximal_lw3_count_formula,
    maximal_polygons,
    relax_condition,
    sporadic_ld2,
)

__all__ = [
    "Point",
    "Polygon",
    "convex_hull",
    "is_visible",
    "Functional",
    "UnimodularMap",
    "canonical_form",
    "has_lattice_segment",
    "lattice_diameter",
    "lattice_width",
    "is_maximal",
    "relax",
    "relaxed_lattice",
    "HyperellipticForm",
    "PanoptigonReport",
    "hyperelliptic_count",
    "hyperelliptic_normal_form",
    "hyperelliptic_panoptigon_predicate",
    "hyperelliptic_polygon",
    "is_hyperelliptic",
    "is_panoptigon",
    "standard_triangle",
    "trapezoid",
    "valid_forms",
    "CensusRecord",
    "ObstructionVerdict",
    "big_face_obstruction",
    "census_summary",
    "enumerate_raw",
    "full_panoptigon_census",
    "genus1_classes",
    "maximal_lw3_count_formula",
    "maximal_polygons",
    "relax_condition",
    "sporadic_ld2",
]

__version__ = "0.1.0"
