"""The repository benchmark: host cost of reproducing the paper's figures.

    python3 perfbench/run.py --workload osu_fig10 --seed 1 --seconds 30 --trace 0

Runs passes of one workload (see ``workloads.py``), each in a fresh
single-threaded interpreter started from the repository root with
``PYTHONPATH=src``, until ``--seconds`` have elapsed (at least one
pass).  Every pass checks every job's virtual-time outputs against the
pinned reference.

``--trace 0`` reports the end-to-end metrics (medians over passes):

* ``norm_wall_s`` - seconds the jobs ran, first job's start to last
  job's end (each job's outputs are checked between jobs, off the
  clock), converted to the reference host speed by the speed probe
  that samples the host while the jobs run (``workloads.SpeedProbe``);
* ``norm_rank_colls_per_s`` - pinned top-level collective calls /
  ``norm_wall_s``;
* ``setup_s`` - interpreter start to first job start, converted to the
  reference speed like the wall (median of at least :data:`MIN_SETUPS`
  set-ups, extra set-up-only processes added as needed);
* ``peak_rss_mb`` - peak resident memory of the pass's process.

The table above the result also prints ``wall_s``,
``rank_colls_per_s`` and ``setup_s`` as measured, before conversion.

``--trace 1`` runs one untimed pass, then layer-timed passes (see
``layers.py``) until ``--seconds`` have elapsed, and reports every
per-layer metric plus ``layer_timing_overhead`` (traced wall / untimed
wall).  The spans of the last traced pass go to
``perfbench/out/<workload>.layers.trace.json``.

A table above the result prints every metric with its unit, plus
``failed_frac`` (jobs whose outputs differ from the reference / jobs
run) and the run's metadata (host calibration, Python version, nproc).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is non-zero when any job
mismatches or any pass fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

MIN_SETUPS = 7
#: No pass may start once this much of the run has elapsed, so a run
#: ends well within three minutes.
PASS_DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = (("norm_wall_s", "s"), ("norm_rank_colls_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Printed in the table, not reported: the figures as measured, before
#: conversion to the reference host speed.
MEASURED = (("wall_s", "s"), ("rank_colls_per_s", "1/s"), ("setup_s", "s"))
#: Per-layer metric units (the order is the report order).
PER_LAYER = (
    ("simulator.self_s", "s"), ("simulator.events", "count"),
    ("simulator.runs", "count"),
    ("machine.self_s", "s"), ("machine.calls", "count"),
    ("machine.intra_copies", "count"), ("machine.intra_bytes", "bytes"),
    ("machine.network_messages", "count"),
    ("machine.network_bytes", "bytes"),
    ("mpi.p2p.self_s", "s"), ("mpi.p2p.calls", "count"),
    ("mpi.p2p.messages", "count"), ("mpi.p2p.bytes", "bytes"),
    ("mpi.comm.self_s", "s"), ("mpi.comm.calls", "count"),
    ("mpi.collectives.self_s", "s"), ("mpi.collectives.dispatches", "count"),
    ("replay.park_s", "s"), ("replay.decide_s", "s"),
    ("replay.record_s", "s"), ("replay.records", "count"),
    ("replay.hits", "count"), ("replay.misses", "count"),
    ("replay.events_saved", "count"), ("replay.hit_ratio", "ratio"),
    ("core.self_s", "s"), ("core.calls", "count"),
    ("apps.self_s", "s"),
    ("trace.self_s", "s"), ("trace.records", "count"),
    ("trace.export_s", "s"),
    ("analysis.self_s", "s"), ("metrics.self_s", "s"),
    ("bench.self_s", "s"),
    ("unattributed_s", "s"), ("layer_timing_overhead", "ratio"),
)


class PassFailed(RuntimeError):
    """A pass's process exited non-zero or printed no result."""


def child_env() -> dict[str, str]:
    """The pass environment: only the repository's sources on the path,
    no ``REPRO_*`` overrides, fixed hashing, single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(workload: str, seed: int, mode: str,
              calibrate: bool = False) -> dict:
    """Run one pass (or set-up) in a fresh interpreter; returns its
    JSON document."""
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload,
             str(seed), mode, str(spawned), str(int(calibrate))],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise PassFailed(f"{mode} pass exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, mode: str,
               start: float, calibrate: bool) -> list[dict]:
    """Passes of *mode* until *seconds* have elapsed since *start*; with
    *calibrate*, the first pass also times the calibration loop."""
    docs = []
    while not docs or (time.monotonic() - start < seconds
                       and time.monotonic() - start < PASS_DEADLINE_S):
        docs.append(run_child(workload, seed, mode,
                              calibrate=calibrate and not docs))
    return docs


def walls(passes: list[dict], key: str) -> dict[str, float]:
    """Median wall under *key* and the collective rate it gives."""
    rank_colls = passes[0]["rank_colls"]
    return {
        key: statistics.median(p[key] for p in passes),
        key.replace("wall_s", "rank_colls_per_s"): statistics.median(
            rank_colls / p[key] for p in passes),
    }


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        **walls(passes, "norm_wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list[dict], untimed: dict) -> dict[str, float]:
    out = {}
    for name, _unit in PER_LAYER[:-1]:
        out[name] = statistics.median(p["layers"][name] for p in traced)
    out["layer_timing_overhead"] = (
        statistics.median(p["wall_s"] for p in traced) / untimed["wall_s"]
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        if args.trace:
            untimed = run_child(args.workload, args.seed, "untimed",
                                calibrate=True)
            traced = run_passes(args.workload, args.seed, args.seconds,
                                "traced", start, calibrate=False)
            passes = [untimed] + traced
            metrics = per_layer(traced, untimed)
            units = dict(PER_LAYER)
        else:
            passes = run_passes(args.workload, args.seed, args.seconds,
                                "untimed", start, calibrate=True)
            setups = [{k: p[k] for k in ("setup_s", "measured_setup_s")}
                      for p in passes]
            while len(setups) < MIN_SETUPS:
                setups.append(run_child(args.workload, args.seed, "setup"))
            metrics = end_to_end(passes, [s["setup_s"] for s in setups])
            units = dict(END_TO_END)
            measured = {
                **walls(passes, "wall_s"),
                "setup_s": statistics.median(
                    s["measured_setup_s"] for s in setups),
            }
    except PassFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "jobs": passes[0]["jobs"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "calibration_s": passes[0]["calibration_s"],
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_norm_walls_s": [p.get("norm_wall_s") for p in passes],
        "pass_probes_s": [p.get("probe_s") for p in passes],
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}.trace{args.trace}.run.json", "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics}, fh, indent=1)

    for p in passes:
        for name, reason in p["mismatches"].items():
            print(f"MISMATCH {args.workload} {name}: {reason}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"calibration_s={meta['calibration_s']:.4f} "
          f"python={meta['python']} nproc={meta['nproc']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6g} {units[name]}")
    if not args.trace:
        for name, unit in MEASURED:
            print(f"  {name:28s} {measured[name]:16.6g} {unit} (measured)")
    print(f"  {'failed_frac':28s} {failed / attempted:16.6g} fraction")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
