"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` once per seed on each workload (one at a time,
each in its own process) and prints, per metric, the median, the
quartiles and the interquartile distance as a share of the median, next
to the metric's bound in ``BENCHMARK.json``.  A spread at or above a third
of the bound is flagged (``setup_s`` is exempt from the spread rule).

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10 [--workloads snn-batch,...] [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: failed\n{proc.stderr}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(seed_list(args.seeds))} seeds)")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                flagged += 1
            print(f"{name:>34} median {median:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  spread {spread:6.3f}  bound {bound}{flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
