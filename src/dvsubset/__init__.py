"""Exact-arithmetic search for point subsets whose simplices all have
distinct volumes.

The pipeline: color every a-subset of a rational point set by its exact
squared simplex volume (`coloring`), extract a rainbow subset by seeded
sampling and conflict deletion (`rainbow`), or chase structured loci—spheres
and hyperplanes—when some volume class is too popular (`finder`).  Closed
form size and pair-count bounds live in `bounds`, instance builders in
`generators`.
"""

from .bounds import (
    H_general_recurrence,
    H_simplex_upper,
    as_upper,
    expected_conflict_bound,
    g_upper,
    h_general_lower,
    h_simplex_lower,
    int_nth_root,
)
from .coloring import (
    ColorKey,
    Coloring,
    GoodnessReport,
    build_coloring,
    goodness,
)
from .finder import (
    FindRequest,
    FindResult,
    GeneralPositionError,
    VerifyReport,
    brute_force_max,
    find_subset,
    general_position_check,
    greedy_augment,
    verify_subset,
)
from .generators import (
    gen_cocircular_plus_noise,
    gen_collinear,
    gen_grid,
    gen_parallel_lines,
    gen_random,
    gen_sphere2d,
)
from .geometry import (
    Point,
    PointSet,
    affine_rank,
    format_pointset,
    load_pointset,
    parse_pointset,
    save_pointset,
    squared_volume,
    squared_volume_cm,
)
from .rainbow import (
    BadEdgeWitness,
    ConflictStats,
    ExtractionFailure,
    RainbowResult,
    extract_rainbow,
    find_bad_edge,
    sample_conflicts,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "BadEdgeWitness",
    "ColorKey",
    "Coloring",
    "ConflictStats",
    "ExtractionFailure",
    "FindRequest",
    "FindResult",
    "GeneralPositionError",
    "GoodnessReport",
    "H_general_recurrence",
    "H_simplex_upper",
    "Point",
    "PointSet",
    "RainbowResult",
    "SplitMix64",
    "VerifyReport",
    "affine_rank",
    "as_upper",
    "brute_force_max",
    "build_coloring",
    "expected_conflict_bound",
    "extract_rainbow",
    "find_bad_edge",
    "find_subset",
    "format_pointset",
    "g_upper",
    "gen_cocircular_plus_noise",
    "gen_collinear",
    "gen_grid",
    "gen_parallel_lines",
    "gen_random",
    "gen_sphere2d",
    "general_position_check",
    "goodness",
    "greedy_augment",
    "h_general_lower",
    "h_simplex_lower",
    "int_nth_root",
    "load_pointset",
    "parse_pointset",
    "save_pointset",
    "squared_volume",
    "squared_volume_cm",
    "verify_subset",
]
