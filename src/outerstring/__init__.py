"""Analysis toolkit for grounded families of curves (outerstring graphs).

The package provides an exact rational geometric kernel, intersection-graph
construction with exact clique and chromatic solvers, the structural objects
used in chi-boundedness arguments for these graphs (skeletons, brackets,
clique systems), executable structure-extraction procedures with verified
step traces, and big-integer evaluation of the explicit bound recurrences.
"""

from .geom import (CurveFamily, CurvePoint, GroundedCurve, Subcurve, curve,
                   curve_intersections, curves_intersect, dump_family,
                   dumps_family, exterior_membership, first_hit, load_family,
                   loads_family, pt, subcurves_intersect, validate_family)
from .graph import (IntersectionGraph, chromatic_number, clique_number,
                    intersection_graph, piercer_cover_coloring)
from .structures import (Bracket, CliqueAnchors, CliqueSystem, Signature,
                         Skeleton, build_bracket, check_signature_betweenness,
                         clique_anchors, crosses_system, extract_clique,
                         interior_classify, is_supported, side_for_clique,
                         signature, supported_subfamily, validate_bracket_system,
                         validate_clique_system, verify_bracket_crossing)
from .extract import (BoundParams, ExtractionReport, attempt_bracket_system,
                      attempt_clique_system, bfs_supported,
                      find_skeleton_supported, intersecting_gap_pair,
                      mcguinness)
from .bounds import explicit_chi_bound, f_bound, g2_bound, gt_bound
from .gen import (GenSpec, figure_fixture, random_grounded_polylines,
                  random_grounded_segments)

__version__ = "0.1.0"
