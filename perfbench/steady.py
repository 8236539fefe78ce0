"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steady.py --seeds 1-10 --seconds 10 --out perfbench/results/steady.json

Runs ``run.py`` once per (workload, seed), one at a time, and reports for
every metric its median, first and third quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the interquartile distance as a share of the
median. Raw values are kept in the output file.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_REPORT_LINE = re.compile(r"^  (?P<name>[a-z][\w.]*)\s+(?P<value>\S+) \S+\s+n=\d+$")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _printed(lines: list[str]) -> dict[str, float]:
    """``name value unit n=samples`` report lines with samples, as numbers."""
    out = {}
    for line in lines:
        match = _REPORT_LINE.match(line)
        if match and match["value"] != "n/a":
            out[match["name"]] = float(match["value"])
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str]) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    report: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {completed.returncode}\n"
                      f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
                status = 1
                continue
            run = json.loads(lines[-1])
            run["printed"] = _printed(lines[:-1])
            runs.append(run)
        if len(runs) < 2:
            continue
        metrics = {
            name: summarize([run["metrics"][name]["value"] for run in runs])
            for name in runs[0]["metrics"]
        }
        # Figures the report lines carry beyond the JSON line (read_tps,
        # unavail_ms, raw host times, ...), where a run has samples.
        printed = {
            name: summarize([run["printed"][name] for run in runs])
            for name in runs[0]["printed"]
            if name not in metrics and all(name in run["printed"] for run in runs)
        }
        report["workloads"][workload] = {
            "runs": len(runs),
            "all_correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
            "printed": printed,
        }
        print(f"== {workload}: {len(runs)} runs, all correct: "
              f"{report['workloads'][workload]['all_correct']}")
        for name, summary in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if args.trace == 0 and bound and summary["spread"] > bound / 3:
                flag = f"  spread above a third of bound {bound}"
            print(f"  {name:<36} median {summary['median']:<12.6g} "
                  f"q1 {summary['q1']:<12.6g} q3 {summary['q3']:<12.6g} "
                  f"spread {summary['spread']:.3f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
