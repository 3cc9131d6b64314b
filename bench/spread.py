"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds S]
                            [--trace 0|1] [--out FILE.json]

For every metric prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, which is how run-to-run spread is judged against a metric's
bound in ``BENCHMARK.json``.  ``--out`` writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(completed.stdout, file=sys.stderr)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()
            if not name.endswith((".calls", ".entries", ".tuples_computed"))), flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "all_correct": all(r["correct"] for r in runs), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"],
                                    **summarize(values)}
        stats = summary["metrics"][name]
        print(f"{name:55s} median {stats['median']:.6g} {stats['unit']}  "
              f"IQR/median {stats['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
