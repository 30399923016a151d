"""Benchmark of the pose-only pipeline.

    python3 perfbench/run.py --workload small_scenes|refine|large_cli \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported only from ``src/`` of the
checkout that holds this file, and the command fails with exit code 2
when it is not there. Inputs are made from ``--seed`` in one process and
timed in a second, fresh one, so that input generation sets neither the
timing process's peak memory nor its warm state. Work files live in
``perfbench/.work/`` and are removed at the end.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics (``scene_s``, ``poses_s``, ``peak_rss_mb``,
``setup_s``), with ``--trace 1`` the per-layer ones. Times are CPU
seconds (unit ``cpu_s``; ``s`` for ``setup_s``) of the benchmark's
single-threaded processes, which leave out the pauses a virtual machine's
host imposes; only ``wall.scene_s`` is wall time. The line before it
records the machine (nproc, library versions, BLAS threads), the wall,
CPU and host steal time of the timed loop, and the median wall time of
one untraced scene. See ``perfbench/README.md`` for what each workload
and metric means.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small_scenes", "refine", "large_cli")
TIME_LIMIT_S = 170.0  # every run ends well inside three minutes


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _worker(*args, timeout):
    """Run worker.py to completion; its stdout, or SystemExit on failure."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[0]} exited with {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "poseonly" / "__init__.py").is_file():
        print(f"poseonly not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The driver of a run may end it with SIGTERM; turn that into SystemExit
    # so subprocess.run kills and reaps the worker on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    start = time.monotonic()
    try:
        common = (ROOT, args.workload, args.seed, workdir)
        _worker("gen", *common, timeout=TIME_LIMIT_S)
        # CPU time of this process and of the finished generator process.
        own, gen = (resource.getrusage(who) for who in
                    (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        stdout = _worker("time", *common, args.seconds, args.trace,
                         timeout=TIME_LIMIT_S - (time.monotonic() - start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment, result = (json.loads(line) for line in stdout.splitlines()[-2:])
    # Set-up is the CPU time of all three processes from their start to the
    # end of warm-up: this one, the generator and the timing process.
    setup_s = own.ru_utime + own.ru_stime + gen.ru_utime + gen.ru_stime
    setup_s += result.pop("ready_cpu_s")
    if args.trace == "0":
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(environment))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
