"""The repository benchmark: one command, four CCF workloads, two clocks.

    python3 perfbench/run.py --workload write-sat --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Lines
before it are the human-readable report. The exit code is non-zero when a
correctness check fails or the program cannot be run.

Each measurement runs in a fresh child process of this script (``--phase``),
so process-global caches start cold for every run and an untraced run and
its traced twin start from the same state:

- ``--trace 0``: two set-up-only children on derived seeds, then a measured
  child on ``--seed``. ``setup_s`` is the median of the three set-ups.
- ``--trace 1``: a measured untraced child and a traced child on the same
  seed. Their simulated results must be identical; the ratio of their host
  cost is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench_out"
BUDGET_S = 170.0
SETUP_SAMPLES = 3

# End-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("write_tps", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("host_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure", "traced"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Child phases: one workload run in this process


def _import_program():
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def _phase(args: argparse.Namespace) -> dict:
    workloads = _import_program()
    spec = workloads.SPECS[args.workload]
    if args.phase == "setup":
        _service, _gen, clock = workloads.setup(spec, args.seed)
        return {"setup_s": clock.scaled, "setup_raw_s": clock.raw}

    tracer = collector = None
    hooks = {}
    if args.phase == "traced":
        import layers
        import tracing
        from repro.obs.collector import ObsCollector

        tracer = tracing.HostTracer()
        tracer.install()
        collector = ObsCollector(seed=args.seed)
        probes = []

        def on_window(opening: bool, service) -> None:
            if not opening:
                tracer.stop()
            probes.append(layers.probe(service, collector))
            if opening:
                tracer.start()

        hooks = {
            "on_service": lambda service: collector.attach_to_service(service),
            "on_window": on_window,
        }
    result = workloads.run_workload(spec, args.seed, args.seconds, **hooks)

    import checks

    problems, rolled_back = checks.check_run(
        result.service, result.generator, args.seed, result.cycles
    )
    report = {
        "problems": problems,
        "rolled_back_acks": rolled_back,
        "end_to_end": end_to_end(result, workloads),
        "fingerprint": fingerprint(result),
        "attempted": result.generator.window.attempted,
        "failed": result.generator.window.failed,
        "lateness_ms": result.generator.max_lateness * 1e3,
        "cycles": result.cycles,
    }
    if tracer is not None:
        report["unreached"] = tracer.unreached(args.workload)
        report["per_layer"] = layers.per_layer(result, tracer, collector, probes)
        tracer.write(OUTPUT / f"spans-{args.workload}-s{args.seed}.bin")
    return report


def end_to_end(result, workloads) -> dict:
    """Every end-to-end figure, as ``name -> (value, unit, samples)``."""
    gen = result.generator
    window = gen.window
    sim = result.window_sim_s
    writes, reads = window.write_latencies, window.read_latencies
    ops = len(writes) + len(reads)
    out = {
        "write_tps": (len(writes) / sim, "1/s", len(writes)),
        "read_tps": (len(reads) / sim, "1/s", len(reads)),
        "write_p50_ms": (workloads.percentile(writes, 50) * 1e3, "ms", len(writes)),
        "write_p99_ms": (workloads.percentile(writes, 99) * 1e3, "ms", len(writes)),
        "read_p50_ms": (workloads.percentile(reads, 50) * 1e3, "ms", len(reads)),
        "read_p99_ms": (workloads.percentile(reads, 99) * 1e3, "ms", len(reads)),
        "host_ms_per_op": (result.window.scaled * 1e3 / max(ops, 1), "ms", ops),
        "host_ms_per_op_raw": (result.window.raw * 1e3 / max(ops, 1), "ms", ops),
        "setup_s": (result.setup.scaled, "s", 1),
        "setup_raw_s": (result.setup.raw, "s", 1),
        "peak_rss_mb": (result.peak_rss_mb, "MB", 1),
        "failed_frac": (window.failed / max(window.attempted, 1), "fraction",
                        window.attempted),
    }
    # Medians over failover cycles; not applicable (n=0) elsewhere.
    cycles = result.cycles
    for name, key, unit, scale in (("unavail_ms", "unavail_s", "ms", 1e3),
                                   ("rejoin_ms", "rejoin_s", "ms", 1e3),
                                   ("rejoin_host_s", "rejoin_host_s", "s", 1.0)):
        value = statistics.median(c[key] for c in cycles) * scale if cycles else 0.0
        out[name] = (value, unit, len(cycles))
    return out


def fingerprint(result) -> dict:
    """The simulated outcome of a run: equal seeds must give equal prints,
    traced or not."""
    gen = result.generator
    primary = result.service.primary_node()
    return {
        "window_sim_s": result.window_sim_s,
        "writes": gen.window.write_latencies,
        "reads": gen.window.read_latencies,
        "attempted": gen.window.attempted,
        "failed": gen.window.failed,
        "events": result.events_in_window,
        "commit_seqno": primary.consensus.commit_seqno,
        "root": bytes(primary.ledger.root()).hex(),
        "cycles": [
            {k: v for k, v in cycle.items() if k != "rejoin_host_s"}
            for cycle in result.cycles
        ],
    }


# ----------------------------------------------------------------------
# Parent: orchestrate children, print the report


def _child(args: argparse.Namespace, phase: str, seed: int, deadline: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--phase", phase,
    ]
    # A fixed hash seed keeps set iteration order, and so the simulation,
    # identical across the child processes of one seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{phase} run of {args.workload} failed "
                         f"(exit {completed.returncode})")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit, samples) in metrics.items():
        shown = f"{value:>14.6g}" if samples else f"{'n/a':>14}"
        print(f"  {name:<40} {shown} {unit:<9} n={samples}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.phase:
        print(json.dumps(_phase(args)))
        return 0
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    workloads = _import_program()
    if args.workload not in workloads.SPECS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    if args.trace == 0:
        setups = [
            _child(args, "setup", args.seed + 7919 * k, deadline)
            for k in range(1, SETUP_SAMPLES)
        ]
        report = _child(args, "measure", args.seed, deadline)
        e2e = report["end_to_end"]
        setups.append({"setup_s": e2e["setup_s"][0], "setup_raw_s": e2e["setup_raw_s"][0]})
        for name in ("setup_s", "setup_raw_s"):
            e2e[name] = (statistics.median(s[name] for s in setups), "s", len(setups))
        problems = report["problems"]
        _print_metrics(f"{args.workload} seed {args.seed}: end to end", report["end_to_end"])
        print(f"  generator lateness (max, sim ms): {report['lateness_ms']:.6g}")
        print(f"  acknowledged writes rolled back by a primary kill: "
              f"{report['rolled_back_acks']}")
        metrics = {
            name: {"value": report["end_to_end"][name][0], "unit": unit}
            for name, unit in END_TO_END
        }
    else:
        plain = _child(args, "measure", args.seed, deadline)
        traced = _child(args, "traced", args.seed, deadline)
        problems = traced["problems"] + plain["problems"]
        same = traced["fingerprint"] == plain["fingerprint"]
        print(f"traced simulation identical to untraced: {same}")
        if not same:
            problems.append("tracing perturbed the run: traced and untraced "
                            "simulations of the same seed differ")
        if traced["unreached"]:
            problems.append("wrapped entry points never called: "
                            + ", ".join(traced["unreached"]))
        layer = traced["per_layer"]
        layer["obs.trace_overhead_frac"] = (
            traced["end_to_end"]["host_ms_per_op"][0]
            / plain["end_to_end"]["host_ms_per_op"][0] - 1.0,
            "fraction", 1,
        )
        report = traced
        _print_metrics(f"{args.workload} seed {args.seed}: per layer (traced)", layer)
        import layers

        metrics = {
            name: {"value": layer[name][0], "unit": unit}
            for name, unit in layers.REPORTED
        }

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
