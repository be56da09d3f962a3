"""Exact geometric kernel for grounded curve families."""

from .curves import (CurveFamily, CurvePoint, GroundedCurve, Subcurve,
                     as_rational, curve, curve_end, curve_point, curve_start,
                     initial_subcurve, pt, whole_subcurve)
from .curveops import (curve_intersections, curves_intersect, first_hit,
                       hits_against, piece_representatives, split_points_on,
                       subcurves_intersect)
from .exterior import FreeSpace, exterior_membership
from .io import (curves_from_dict, dump_family, dumps_family, family_from_dict,
                 family_to_dict, load_family, loads_family)
from .region import JordanRegion
from .segments import classify_intersection, on_segment, orient
from .validate import Violation, check_pair, find_violations, validate_family

__all__ = [
    "CurveFamily", "CurvePoint", "GroundedCurve", "Subcurve", "Violation",
    "FreeSpace", "JordanRegion",
    "as_rational", "pt", "curve", "curve_point", "curve_start", "curve_end",
    "initial_subcurve", "whole_subcurve",
    "curve_intersections", "curves_intersect", "first_hit", "hits_against",
    "subcurves_intersect", "split_points_on", "piece_representatives",
    "exterior_membership",
    "validate_family", "find_violations", "check_pair",
    "classify_intersection", "on_segment", "orient",
    "load_family", "loads_family", "dump_family", "dumps_family",
    "curves_from_dict", "family_from_dict", "family_to_dict",
]
