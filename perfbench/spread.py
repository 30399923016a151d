"""Run-to-run spread of the end-to-end metrics, the figure each bound rests on.

    python3 perfbench/spread.py --workload refine --seeds 1-10 [--label a]

Runs ``run.py --trace 0`` once per seed, one after another, for the
``run_seconds`` of ``BENCHMARK.json``, the length the bounds apply to. It
prints for every metric its ten (or however many) values, their median
and the distance between the first and third quartile as a share of the
median, the same statistic the benchmark's bounds are judged by, and does
the same for the median wall time per scene that each run records beside
its result (``scene_wall_s``, not a bounded metric). The values are also
written to ``perfbench/.results/<label>-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1-10")
    parser.add_argument("--label", default="spread")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        header, result = (json.loads(line) for line in out.splitlines()[-2:])
        environment = header["environment"]
        result["metrics"]["scene_wall_s"] = {
            "value": environment["scene_wall_s"], "unit": "s"}
        runs.append({"seed": seed, **environment, **result})
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              f"attempted={result['attempted']} failed={result['failed']}",
              f"correct={result['correct']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "values": values}
        print(f"{name:12s} median {median:.6g}  spread {(q3 - q1) / median:.4f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("failed shares", sorted(shares), "all correct", all(r["correct"] for r in runs))

    out_dir = HERE / ".results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.label}-{args.workload}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
