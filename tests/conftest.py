import tracemalloc

import numpy as np
import pytest

import poseonly as po
from poseonly.simulate import gaussian, look_at_rotation, make_rng

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Derandomized so every run draws the same examples; no deadline
    # because a shared 2-core machine makes per-example times erratic.
    settings.register_profile("deterministic", derandomize=True, deadline=None)
    settings.load_profile("deterministic")

# Collected by the acceptance tests; printed in the terminal summary so
# one PASS/FAIL line per criterion is visible on every run.
_ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, description: str, passed: bool, detail: str = ""):
    _ACCEPTANCE_RESULTS.append((number, description, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number, description, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"  [{status}] {number:2d}. {description}{suffix}")


@pytest.fixture
def scene_s1():
    return po.scene_s1()


def random_exact_pair(rng):
    """Two poses and one point with comfortable positive depth in both."""
    point = gaussian(rng, 3) * 2.0
    while True:
        c_i = point + 4.0 * gaussian(rng, 3)
        c_j = point + 4.0 * gaussian(rng, 3)
        if (
            np.linalg.norm(c_i - point) > 1.0
            and np.linalg.norm(c_j - point) > 1.0
            and np.linalg.norm(c_i - c_j) > 0.5
        ):
            break
    pose_i = po.CameraPose(look_at_rotation(c_i, point + 0.2 * gaussian(rng, 3)), c_i)
    pose_j = po.CameraPose(look_at_rotation(c_j, point + 0.2 * gaussian(rng, 3)), c_j)
    x_i = po.project(pose_i, point)
    x_j = po.project(pose_j, point)
    return pose_i, pose_j, point, x_i, x_j


def solve_problem_centers(problem):
    system = po.assemble_system(problem.tracks, problem.rotations, problem.reference_view)
    return po.solve_translations(system).translations


def transient_bytes(call):
    """What ``call()`` allocates and frees again before it returns:
    tracemalloc's peak during the call less what its result still holds."""
    tracemalloc.start()
    try:
        held = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del held
    return peak - current


def gram_identity_pairs(g):
    """Reference for ``observations._max_theta_pairs``: the row-major first
    (p, q), p < q, of maximal theta^2 per track of world-frame rays
    ``g`` (T, K, 3), one track at a time, with theta^2 from
    |g_p|^2 |g_q|^2 - (g_p . g_q)^2 clamped at 0."""
    p, q = np.empty(len(g), dtype=np.intp), np.empty(len(g), dtype=np.intp)
    for t, rays in enumerate(g):
        sq = np.einsum("ki,ki->k", rays, rays)
        table = np.maximum(np.outer(sq, sq) - (rays @ rays.T) ** 2, 0.0)
        table[np.tri(len(rays), dtype=bool)] = -1.0
        p[t], q[t] = np.divmod(table.argmax(), len(rays))
    return p, q


def exact_generic_scene(seed, n_views=8, n_points=30):
    return po.generate_scene(
        po.SceneConfig(n_views=n_views, n_points=n_points, motion="generic_ring", seed=seed)
    )


__all__ = [
    "record_acceptance",
    "random_exact_pair",
    "solve_problem_centers",
    "exact_generic_scene",
    "gram_identity_pairs",
    "make_rng",
]
