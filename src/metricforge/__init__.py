"""metricforge: finite metric space toolkit.

Core pieces: validated finite metric spaces with covering machinery,
a basepoint sphericalization with an adjoined ideal point, boundary
doubling of marked spaces, quantitative estimators (doubling, Ahlfors
regularity, linear local connectivity, quasicircle screening), and
triple/quadruple distortion profiling.
"""

__version__ = "0.1.0"

from .space import (
    CoverResult,
    FiniteMetricSpace,
    ValidationReport,
    Violation,
    ball,
    covering_radius,
    from_json,
    greedy_cover_5r,
    load_space,
    sample_scale,
    save_space,
    subspace,
    to_json,
    validate_metric,
)
from .generators import (
    disk_grid,
    disk_sample,
    euclidean_grid,
    generate,
    halfplane_sample,
    random_metric,
    sphere_cap_complement,
)
from .warp import (
    INFINITY_LABEL,
    InclusionReport,
    WarpedSpace,
    check_inclusions,
    infty_ball,
    point_scales,
    rho,
    rho_matrix,
    warp,
)
from .glue import DoubledSpace, diam_ratio, double, project
from .analysis import (
    LLCReport,
    QuasicircleReport,
    RegularityReport,
    default_delta,
    default_radii,
    doubling_constant,
    hausdorff_premeasure,
    llc_constants,
    quasicircle_check,
    regularity_constant,
)
from .distortion import (
    ClaimCheck,
    DistortionProfile,
    chordal,
    check_plane_to_sphere_L,
    cross_ratio,
    linear_gauge,
    plane_sphere_ratios,
    qm_profile,
    qs_profile,
    stereographic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
