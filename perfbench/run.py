"""Repository benchmark: library decode, open-loop serving and
large-image fan-out, with per-module layer timings.

Usage, from the repository root::

    python3 perfbench/run.py --workload decode_photo --seed 1 \\
        --seconds 20 --trace 0

Prints a run record and every metric by name with its unit, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` measures an untraced and a traced
phase of half the run each and reports the per-layer metrics.  Exits
non-zero when any input decodes differently from its sequential
oracle, or a traced run does not reconcile.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("decode_photo", "serve_small", "serve_large")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"decode_photo": 5, "serve_small": 5, "serve_large": 5}

#: Untimed open-loop load before ``serve_small`` measures, seconds
#: (one pass over every other member, 3.6 s at 10 req/s).
SMALL_WARMUP_S = 2.0


def git_sha() -> str | None:
    """The checkout's commit, or None outside a git checkout."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Build the corpus, set up, run the phase(s); returns
    ``(metrics, phases)``."""
    import corpus
    import workloads as wl

    half = seconds / 2 if trace else seconds
    repeats = 1 if trace else SETUP_REPEATS[workload]
    traced = None
    if workload == "decode_photo":
        members = corpus.build(corpus.photo_specs(seed)
                               + [corpus.cold_start_spec()])
        cold = members.pop()
        setups = [wl.photo_cold_start_s(cold.data, str(SRC))
                  for _ in range(repeats)]
        wl.run_photo(members, 0, traced=False)     # one untimed pass
        plain = wl.run_photo(members, half, traced=False)
        if trace:
            traced = wl.run_photo(members, half, traced=True)
    else:
        specs = (corpus.small_specs() if workload == "serve_small"
                 else corpus.large_specs(seed))
        members = corpus.build(specs + [corpus.warmup_spec()])
        warmup = members.pop()

        def phase(session, is_traced):
            # An untimed warm-up first: one pass, or a few seconds of
            # load, so worker allocations and shm segments exist.
            if workload == "serve_small":
                wl.run_small(session, members[1::2], SMALL_WARMUP_S,
                             seed, 0)
                return wl.run_small(session, members, half, seed,
                                    1 + is_traced)
            kinds = len(corpus.LARGE_KINDS)
            wl.run_large(session, members[:kinds], 0, kinds)
            return wl.run_large(session, members, half, kinds)

        setups = []
        for _ in range(repeats):
            if setups:
                session.close()
            session, elapsed = wl.start_session(warmup)
            setups.append(elapsed)
        try:
            plain = phase(session, False)
        finally:
            session.close()
        if trace:
            session, _ = wl.start_session(warmup, tracing="on")
            try:
                traced = phase(session, True)
            finally:
                session.close()
            wl.reconcile_traces(traced)

    metrics = wl.end_to_end(plain, statistics.median(setups))
    metrics.update(wl.per_layer(plain))
    phases = [plain]
    if traced is not None:
        phases.append(traced)
        metrics.update(wl.span_layers(traced))
        metrics["obs.overhead_share"] = (
            wl.end_to_end(traced, 0.0)["latency_ms_p50"]
            / metrics["latency_ms_p50"] - 1.0)
    return metrics, phases


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the sessions
    started.  It is a child process that Python does not wait for at
    exit, so without this it outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": numpy.__version__, "git_sha": git_sha()}
    print("run: " + json.dumps(record), flush=True)

    import workloads as wl
    try:
        metrics, phases = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except wl.CorrectnessError as exc:
        print(f"perfbench: INCORRECT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        stop_resource_tracker()

    outcomes = [o for p in phases for o in p.outcomes]
    mismatches = [o for o in outcomes if o.status == "mismatch"]
    for o in mismatches:
        print(f"perfbench: MISMATCH {o.member.spec.name}: expected "
              f"{o.member.oracle}, got {o.got}", file=sys.stderr)
    # A layer that does not run on this workload reports 0.
    for name in units:
        metrics.setdefault(name, 0.0)
    for name in units:
        print(f"  {name:<36} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not mismatches, "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.status != "ok"),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
