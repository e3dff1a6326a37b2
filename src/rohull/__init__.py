"""Rank-one geometry of 2x2 matrices: lamination hull iterates, T4
configurations, laminate measures, Hausdorff distances, and polyconvex
hulls of determinant-nonnegative sets."""

from .core import (
    GeometryError,
    Mat2,
    crossing_parameter,
    det,
    rank2x2,
    rank_one_connected,
)
from .hulls import (
    LaminateSet,
    RankOneSegment,
    SeparatorWitness,
    directed_dist_sq,
    hausdorff,
    hausdorff_sq,
    l2_hull,
    lamination_step,
    point_to_set_dist_sq,
    separator_check,
)
from .scalar import EXACT, FLOAT, MixedModeError, Scalar
from .t4 import (
    DiscreteLaminate,
    T4Report,
    T4Witness,
    check_t4_witness,
    detect_t4,
    laminate_unroll,
    solve_t4_ordering,
)

__all__ = [
    "DiscreteLaminate", "EXACT", "FLOAT", "GeometryError", "LaminateSet",
    "Mat2", "MixedModeError", "RankOneSegment", "Scalar", "SeparatorWitness",
    "T4Report", "T4Witness", "check_t4_witness", "crossing_parameter", "det",
    "detect_t4", "directed_dist_sq", "hausdorff", "hausdorff_sq", "l2_hull",
    "lamination_step", "laminate_unroll", "point_to_set_dist_sq", "rank2x2",
    "rank_one_connected", "separator_check", "solve_t4_ordering",
]

__version__ = "0.1.0"
