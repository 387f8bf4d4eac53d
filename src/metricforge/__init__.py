"""metricforge: finite metric space toolkit.

Core pieces: validated finite metric spaces, a basepoint sphericalization
with an adjoined ideal point, boundary doubling of marked spaces,
quantitative estimators (doubling, Ahlfors regularity, linear local
connectivity, quasicircle screening), and triple/quadruple distortion
profiling.
"""

__version__ = "0.1.0"

from .space import (
    FiniteMetricSpace,
    ValidationReport,
    Violation,
    ball,
    from_json,
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
from .glue import DoubledSpace, double
from .analysis import (
    LLCReport,
    QuasicircleReport,
    RegularityReport,
    default_delta,
    default_radii,
    doubling_constant,
    llc_constants,
    quasicircle_check,
    regularity_constant,
)
from .distortion import (
    ClaimCheck,
    DistortionProfile,
    plane_sphere_ratios,
    qm_profile,
    qs_profile,
    stereographic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
