"""Pose-only multi-view geometry: linear global translation solving,
pose-only nonlinear refinement, and analytic 3D reconstruction."""

from . import errors
from .baselines import (
    DirectionSolution,
    RelativeDirection,
    direction_translations,
    directions_from_poses,
)
from .evaluate import (
    EvalReport,
    SimilarityTransform,
    align_similarity,
    aligned_center_rms,
    evaluate_poses,
    mean_rotation_error_deg,
)
from .geometry import (
    CameraPose,
    PairGeometry,
    Track,
    compute_pair_geometry,
    homogenize,
    linear_depths,
    pair_depths,
    pair_geometry,
    project,
    relative_pose,
)
from .pose_adjust import (
    OptimizeReport,
    PAConfig,
    PoseParameterization,
    pa_jacobian,
    pa_optimize,
    pa_residuals,
    reprojection_rms,
    reprojection_stats,
)
from .problem_io import export_ply, read_poses, read_problem, write_poses, write_problem
from .reconstruct import (
    ReconstructedPoint,
    ReconstructionResult,
    reconstruct_all,
    reconstruct_point,
    triangulate_dlt,
)
from .simulate import (
    SceneConfig,
    SceneProblem,
    add_observation_noise,
    generate_scene,
    perturb_rotations,
    problem_from_poses,
    scene_s1,
)
from .translation_solver import (
    BaseViewPair,
    TranslationSolution,
    TranslationSystem,
    assemble_system,
    disambiguate_sign,
    select_base_views,
    singular_spectrum,
    solve_translations,
    spectral_gap,
)

__version__ = "0.1.0"
