"""Layer-attributed benchmark of the serving tier and on-line provisioning.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire-churn --seed 1 --seconds 40 --trace 0

One run boots the workload (several times, for a median set-up time),
checks its answers against an in-process oracle, then measures for
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it spends half the time untraced
and half traced, and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is a report
with sample counts, gate results and run conditions.  A failed gate
exits with status 3 and prints no result; so does a run whose samples
cannot support a reported percentile, with status 4.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from statistics import fmean
from loadgen import StealMeter
from reaper import adopt_orphans, end_children
from statistics import median

from stats import (
    TAIL_Q,
    ShortSample,
    merge_short,
    percentile,
    tail_at,
    tail_percentile,
    window_bounds,
    windowed_tail,
    windows,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

EXIT_NO_PROGRAM = 2
EXIT_GATE = 3
EXIT_SHORT = 4
#: Windows in which other tenants of the machine took more than this
#: share of its CPU time are left out, keeping at least the cleanest
#: quarter: on a shared machine, latency follows the stolen share.
STEAL_LIMIT = 0.02

WORKLOADS = ("wire-churn", "local-provision")


def _summary(values: list[float]) -> dict:
    """Sample count, median and supported tail of one phase's samples."""
    if not values:
        return {"samples": 0}
    out = {"samples": len(values), "p50_ms": median(values) * 1e3}
    try:
        q, tail, beyond = tail_percentile(values)
    except ValueError:
        return out  # too few samples for any tail
    out.update(tail_q=q, tail_ms=tail * 1e3, beyond_tail=beyond)
    return out


def _kept_windows(bounds, meter) -> tuple[list[int], list[float]]:
    """Indices of the windows a metric uses, and every window's steal share."""
    cpus = os.cpu_count() or 1
    shares = [meter.stolen(a, b) / ((b - a) * cpus) for a, b in bounds]
    keep = [i for i, share in enumerate(shares) if share <= STEAL_LIMIT]
    quarter = (len(bounds) + 3) // 4
    if len(keep) < quarter:
        keep = sorted(sorted(range(len(bounds)), key=shares.__getitem__)[:quarter])
    return keep, shares


def _windowed(phases: dict, shape, meter, tail: bool = True) -> dict:
    """Per-window latency p50, tail and throughput, and their means
    over the windows other tenants of the machine disturbed least.

    The phase's one stretch is cut into ``shape.windows`` equal windows.
    The windows are averaged, not their median taken: on a shared
    machine a CPU's speed can switch between two levels for seconds at a
    time, and a median over windows then jumps from one level to the
    other where a mean moves with the share of time spent at each.
    Kept windows too short for the tail (or, when *tail* is false, for
    the median) are merged with a neighbour first, so every window
    reports the same percentile.  The tail is left out when *tail* is
    false: a half-length traced run may hold too few samples for it.
    """
    phase = phases[shape.phase]
    (span,) = phase.slices
    bounds = window_bounds(*span, shape.windows)
    lat = windows(phase.done, phase.latencies, bounds)
    rates = [shape.per_op * len(part) / (b - a) for part, (a, b) in zip(lat, bounds)]
    keep, steal = _kept_windows(bounds, meter)
    kept = merge_short([lat[i] for i in keep], TAIL_Q if tail else 50.0)
    summary = {
        "p50_ms": fmean([median(part) for part in kept]) * 1e3,
        "throughput_ops": fmean([rates[i] for i in keep]),
        "window_samples": [len(part) for part in lat],
        "window_p50_ms": [median(part) * 1e3 for part in lat],
        "window_throughput_ops": rates,
        "window_steal": steal,
        "kept": keep,
        "merged_samples": [len(part) for part in kept],
    }
    if tail:
        summary.update(
            tail_q=TAIL_Q,
            tail_ms=windowed_tail(kept, TAIL_Q) * 1e3,
            merged_tail_ms=[percentile(part, TAIL_Q) * 1e3 for part in kept],
        )
    return summary


def _phase_report(phases: dict) -> dict:
    report = {}
    for name, phase in phases.items():
        entry = dict(phase.counts(), elapsed_s=phase.elapsed, latency=_summary(phase.latencies))
        if phase.errors:
            entry["errors"] = phase.errors
        report[name] = entry
    return report


def _layer_values(workload: str, out, names: list[str], summary: dict, meter) -> dict:
    """The per-layer metrics of a traced run."""
    import layers
    from workloads import BATCH

    traced = out.spans
    phases = traced["phases"]
    if workload == "local-provision":
        values = layers.local_layers(names, traced, phases["simulation"].attempted)
        values["blocking_ratio"] = out.extra["blocking_ratio"]
    else:
        queries = BATCH * phases["batches"].succeeded
        values = layers.wire_layers(names, traced, queries, phases["patches"].attempted)
    # Patch latency comes from the untraced half, like the end-to-end metrics.
    patched = out.phases.get("patches")
    if patched is not None:
        values["patch_p50_ms"] = median(patched.latencies) * 1e3
        values["patch_p90_ms"] = tail_at(patched.latencies, TAIL_Q, "patch latencies") * 1e3
    attempted = sum(p.attempted for p in out.phases.values())
    values["failed_ratio"] = sum(p.failed for p in out.phases.values()) / attempted
    traced_summary = _windowed(phases, out.shape, meter, tail=False)
    values["trace.overhead_ratio"] = (
        traced_summary["throughput_ops"] / summary["throughput_ops"]
    )
    traced["summary"] = traced_summary
    return values


def _measure(args, spec: dict, out, meter) -> tuple[dict, list, dict]:
    """The report, the declared metrics and their values of one run."""
    traced = bool(args.trace)
    summary = _windowed(out.phases, out.shape, meter, tail=not traced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "setup_s": out.setup_s,
        "gates": out.gates,
        "phases": _phase_report(out.phases),
        "windows": summary,
        "extra": out.extra,
    }
    if traced:
        declared = spec["per_layer"]
        values = _layer_values(
            args.workload, out, [m["name"] for m in declared], summary, meter
        )
        report["traced_phases"] = _phase_report(out.spans["phases"])
        report["traced_windows"] = out.spans["summary"]
        report["layer_samples"] = out.spans.get("samples")
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": median(out.setup_s),
            "latency_p50_ms": summary["p50_ms"],
            "latency_p90_ms": summary["tail_ms"],
            "throughput_ops": summary["throughput_ops"],
            "pss_mb": out.pss_mib,
        }
    return report, declared, values


def main(argv: list[str] | None = None) -> int:
    """Run one workload; on every way out, stop the processes it started."""
    adopt_orphans()
    # A terminated run unwinds like a failed one, closing its tiers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _main(argv)
    finally:
        end_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.chdir(ROOT)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("src/repro not found: run from a checkout of the repository", file=sys.stderr)
        return EXIT_NO_PROGRAM
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    import workloads

    run_dir = os.path.join(".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    traced = bool(args.trace)
    try:
        with StealMeter() as meter:
            if args.workload == "wire-churn":
                out = workloads.run_churn(args.seed, args.seconds, traced, run_dir)
            else:
                out = workloads.run_local(args.seed, args.seconds, traced)
    except workloads.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return EXIT_GATE
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run still uses it

    try:
        report, declared, values = _measure(args, spec, out, meter)
    except ShortSample as exc:
        print(f"too few samples for a percentile: {exc}", file=sys.stderr)
        return EXIT_SHORT
    attempted = sum(p.attempted for p in out.phases.values())
    failed = sum(p.failed for p in out.phases.values())

    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"report": report}, default=str))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
