"""One benchmark process: ``gen`` makes a workload's inputs, ``time`` runs it.

    python3 perfbench/worker.py gen  <root> <workload> <seed> <workdir>
    python3 perfbench/worker.py time <root> <workload> <seed> <workdir> <seconds> <trace>

``perfbench/run.py`` starts both in turn; they are separate processes so
that input generation never sets the timing process's peak memory. BLAS
is limited to one thread before numpy loads: on a shared two-core host
OpenBLAS's default threads make the linear algebra slower and noisier.

The ``time`` process prints two JSON lines on stdout: the environment
(with the wall time, CPU time and host steal time of the timed loop, and
the median wall time of one untraced scene), then
``{"ready_cpu_s": <CPU time of this process at the end of warm-up>,
"correct", "attempted", "failed", "metrics"}``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, installed  # noqa: E402


def _import_program(root: Path):
    """Import ``poseonly`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import poseonly

    location = Path(poseonly.__file__).resolve()
    if src not in location.parents:
        raise SystemExit(f"poseonly imported from {location}, not from {src}")
    return poseonly


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    out = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def peak_rss_mb() -> float:
    """High-water resident set of this process image, in MB (10^6 bytes).

    VmHWM belongs to the current address space, so unlike ru_maxrss it
    carries nothing over from the process that spawned this one.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc/self/status")


def steal_s() -> float:
    """Time the host has taken from all of this machine's CPUs so far."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def _layer_wrappers(tracer):
    from poseonly import cli, evaluate, pose_adjust, problem_io, reconstruct, translation_solver

    def system_sizes(gauges, system):
        ref = system.reference_view
        touches = sum(int((views == ref).sum())
                      for views in (system.rights, system.row_views, system.lefts))
        gauges["translation_solver.rows"] = 3 * len(system.B)
        gauges["translation_solver.reduced_nnz"] = 27 * len(system.B) - 9 * touches
        gauges["translation_solver.block_mb"] = (system.B.nbytes + system.C.nbytes) / 1e6

    def pa_iterations(gauges, result):
        gauges["pose_adjust.iterations"] = result[1].iterations

    spans = [
        (problem_io, "read_problem", None), (problem_io, "write_poses", None),
        (problem_io, "read_poses", None), (problem_io, "export_ply", None),
        (translation_solver, "assemble_system", system_sizes),
        (translation_solver, "solve_translations", None),
        (translation_solver, "spectral_gap", None),
        (pose_adjust, "pa_optimize", pa_iterations),
        (reconstruct, "reconstruct_all", None),
        (evaluate, "evaluate_poses", None),
        (cli, "run_cli", None),
    ]
    wrappers = {}
    for module, attr, hook in spans:
        name = module.__name__.split(".")[-1] + "." + attr
        wrappers[getattr(module, attr)] = tracer.span(name, getattr(module, attr), hook)
    select = translation_solver.select_base_views
    wrappers[select] = tracer.counter("translation_solver.select_base_views", select)
    return wrappers


# Per-layer metrics and their units, in the order they are reported. Span
# times are CPU seconds (cpu_s); wall.scene_s is the wall time of the
# untraced scenes, the one figure a parallel change would lower.
PER_LAYER = {
    "problem_io.read_problem_s": "cpu_s", "problem_io.write_poses_s": "cpu_s",
    "problem_io.read_poses_s": "cpu_s", "problem_io.export_ply_s": "cpu_s",
    "translation_solver.assemble_system_s": "cpu_s",
    "translation_solver.solve_translations_s": "cpu_s",
    "translation_solver.spectral_gap_s": "cpu_s",
    "translation_solver.select_base_views_calls": "count",
    "translation_solver.rows": "count", "translation_solver.reduced_nnz": "count",
    "translation_solver.block_mb": "MB",
    "pose_adjust.pa_optimize_s": "cpu_s", "pose_adjust.iteration_s": "cpu_s",
    "pose_adjust.pa_jacobian_s": "cpu_s", "pose_adjust.pa_residuals_s": "cpu_s",
    "pose_adjust.iterations": "count", "pose_adjust.jacobian_nnz": "count",
    "reconstruct.reconstruct_all_s": "cpu_s", "evaluate.evaluate_poses_s": "cpu_s",
    "cli.run_cli_s": "cpu_s", "uncovered_s": "cpu_s", "trace.overhead_s": "cpu_s",
    "wall.scene_s": "s",
}
_INCLUSIVE = ("problem_io.read_problem", "problem_io.write_poses", "problem_io.read_poses",
              "problem_io.export_ply", "translation_solver.assemble_system",
              "translation_solver.solve_translations", "translation_solver.spectral_gap",
              "pose_adjust.pa_optimize", "reconstruct.reconstruct_all")


def _scene_layers(tracer, scene_s) -> dict:
    """Per-layer figures of one traced scene."""
    inc, own, gauges = tracer.inclusive, tracer.self_time, tracer.gauges
    iterations = gauges.get("pose_adjust.iterations", 0)
    metrics = {f"{name}_s": inc[name] for name in _INCLUSIVE}
    metrics["evaluate.evaluate_poses_s"] = own["evaluate.evaluate_poses"]
    metrics["cli.run_cli_s"] = own["cli.run_cli"]
    metrics["pose_adjust.iteration_s"] = (
        inc["pose_adjust.pa_optimize"] / iterations if iterations else 0.0)
    metrics["translation_solver.select_base_views_calls"] = (
        tracer.counts["translation_solver.select_base_views"])
    for name in ("translation_solver.rows", "translation_solver.reduced_nnz",
                 "translation_solver.block_mb", "pose_adjust.iterations"):
        metrics[name] = gauges.get(name, 0)
    metrics["uncovered_s"] = scene_s - tracer.top_level_s
    return metrics


def measure(workload, seconds: float, trace: bool):
    """Whole rounds of scenes until ``seconds`` have passed (and at least
    ``workload.min_ops`` scenes ran). With ``trace`` every scene runs twice,
    untraced then traced, and the result holds the per-layer metrics. The
    median wall time of an untraced scene is returned beside the metrics."""
    tracer = Tracer()
    wrappers = _layer_wrappers(tracer) if trace else None
    scene, poses, scene_wall, traced_scene, layers = [], [], [], [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while attempted < workload.min_ops or time.perf_counter() - start < seconds:
        for item in workload.round():
            for traced in ((False, True) if trace else (False,)):
                attempted += 1
                tracer.reset()
                try:
                    with installed(wrappers) if traced else contextlib.nullcontext():
                        gc.collect()
                        wall = time.perf_counter()
                        scene_s, poses_s, output = workload.run(item)
                        wall = time.perf_counter() - wall
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                try:
                    workload.check(item, output)
                except Exception:
                    correct = False
                    traceback.print_exc()
                if traced:
                    traced_scene.append(scene_s)
                    layers.append(_scene_layers(tracer, scene_s))
                else:
                    scene.append(scene_s)
                    poses.append(poses_s)
                    scene_wall.append(wall)

    if not trace:
        values = {"scene_s": statistics.median(scene), "poses_s": statistics.median(poses),
                  "peak_rss_mb": peak_rss_mb()}
        units = {"scene_s": "cpu_s", "poses_s": "cpu_s", "peak_rss_mb": "MB"}
    else:
        # Counts and sizes take the middle observed value, never an average.
        values = {}
        for name in layers[0]:
            middle = statistics.median if PER_LAYER[name] == "cpu_s" else statistics.median_low
            values[name] = middle([row[name] for row in layers])
        values.update({"pose_adjust.pa_jacobian_s": 0.0, "pose_adjust.pa_residuals_s": 0.0,
                       "pose_adjust.jacobian_nnz": 0})
        if hasattr(workload, "layer_calls"):
            values.update(workload.layer_calls(workload.round()[0]))
        values["trace.overhead_s"] = statistics.median(traced_scene) - statistics.median(scene)
        values["wall.scene_s"] = statistics.median(scene_wall)
        units = PER_LAYER
    return correct, attempted, failed, statistics.median(scene_wall), {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv) -> int:
    mode, root, name, seed, workdir = argv[:5]
    root, seed, workdir = Path(root), int(seed), Path(workdir)
    poseonly = _import_program(root)
    import numpy
    import scipy

    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    if mode == "gen":
        workload.generate(seed, workdir)
        return 0
    seconds, trace = float(argv[5]), argv[6] == "1"
    workload.load(workdir)
    workload.warm_up()
    gc.collect()
    ready_cpu_s = time.process_time()
    wall, cpu, steal = time.perf_counter(), time.process_time(), steal_s()
    correct, attempted, failed, scene_wall_s, metrics = measure(workload, seconds, trace)
    environment = {
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": blas_threads(), "poseonly": poseonly.__version__,
        "timed_wall_s": time.perf_counter() - wall, "timed_cpu_s": time.process_time() - cpu,
        "host_steal_s": steal_s() - steal, "scene_wall_s": scene_wall_s,
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps({"ready_cpu_s": ready_cpu_s, "correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
