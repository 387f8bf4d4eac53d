import metricforge as mf


def test_exported_names_are_pinned():
    # A new export needs a caller in the CLI, the bench or an acceptance criterion.
    assert sorted(mf.__all__) == [
        "ClaimCheck", "DistortionProfile", "DoubledSpace", "FiniteMetricSpace",
        "INFINITY_LABEL", "InclusionReport", "LLCReport", "QuasicircleReport",
        "RegularityReport", "ValidationReport", "Violation", "WarpedSpace",
        "analysis", "ball", "check_inclusions", "default_delta", "default_radii",
        "disk_grid", "disk_sample", "distortion", "double", "doubling_constant",
        "euclidean_grid", "from_json", "generate", "generators", "glue",
        "halfplane_sample", "infty_ball", "llc_constants", "load_space",
        "plane_sphere_ratios", "point_scales", "qm_profile", "qs_profile",
        "quasicircle_check", "random_metric", "regularity_constant", "rho", "rho_matrix",
        "sample_scale", "save_space", "space", "sphere_cap_complement", "stereographic",
        "subspace", "to_json", "validate_metric", "warp",
    ]
