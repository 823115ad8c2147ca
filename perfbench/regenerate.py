"""Pin (or check) the benchmark's reference virtual-time outputs.

The benchmark never rewrites its references; this script is the only
writer, and only with ``--write``.  Without it, the script recomputes
every workload and reports whether the committed references still hold.

    PYTHONPATH=src python3 perfbench/regenerate.py            # check
    PYTHONPATH=src python3 perfbench/regenerate.py --write    # re-pin
    PYTHONPATH=src python3 perfbench/regenerate.py --workload osu_fig10

Each reference holds, per job, the per-rank returns, the message and
copy counters, the slowest-rank latency (OSU workloads) and the SHA-256
of the span stream (traced workload), plus the workload's count of
top-level collective calls (``rank_colls``), the numerator of
``rank_colls_per_s``.  ``osu_fig10`` latencies must equal the
``latency_us`` committed in ``BENCH_fig10.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import workloads

BENCH_FIG10 = workloads.HERE.parent / "BENCH_fig10.json"

#: Collective operations counted by ``rank_colls_per_s`` when rank-program
#: code calls them: data-moving collectives, barriers and their
#: immediate variants.  Communicator construction, buffer allocation,
#: point-to-point calls and ``Comm.align`` (zero-cost measurement
#: scaffolding) are not counted.
COMM_COLLECTIVES = (
    "barrier", "bcast", "gather", "gatherv", "scatter", "allgather",
    "allgatherv", "reduce", "allreduce", "alltoall", "scan", "exscan",
    "reduce_scatter", "ibarrier", "ibcast", "iallgather", "iallgatherv",
    "ireduce", "iallreduce",
)
HYBRID_COLLECTIVES = (
    "allgather", "bcast", "allreduce", "iallgather", "ibcast", "iallreduce",
)


def run_counting_collectives(jobs: list) -> tuple[int, list]:
    """Run *jobs*; returns their results and the number of collective
    calls made directly by rank-program code (``repro/apps`` and
    ``repro/bench`` frames), summed over ranks.

    Calls the library makes on behalf of such a call (a hybrid
    collective's internal barriers, a hierarchical algorithm's
    sub-collectives) are not top level and are not counted."""
    from repro.core.hierarchy import HybridContext
    from repro.mpi.comm import Comm

    marks = (os.sep + os.path.join("repro", "apps") + os.sep,
             os.sep + os.path.join("repro", "bench") + os.sep)
    count = 0
    saved = []

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal count
            caller = sys._getframe(1).f_code.co_filename
            if any(m in caller for m in marks):
                count += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls, names in ((Comm, COMM_COLLECTIVES),
                       (HybridContext, HYBRID_COLLECTIVES)):
        for name in names:
            saved.append((cls, name, vars(cls)[name]))
            setattr(cls, name, counted(vars(cls)[name]))
    try:
        results = [job.run() for job in jobs]
    finally:
        for cls, name, attr in saved:
            setattr(cls, name, attr)
    return count, results


def compute(workload: str) -> dict:
    jobs = workloads.build_jobs(workload, seed=0)
    rank_colls, results = run_counting_collectives(jobs)
    pinned = {job.name: workloads.outputs(workload, result)
              for job, result in zip(jobs, results)}
    return {
        "workload": workload,
        "rank_colls": rank_colls,
        "jobs": {name: pinned[name] for name in sorted(pinned)},
    }


def check_fig10(doc: dict) -> list[str]:
    """Jobs whose latency differs from the committed BENCH_fig10.json."""
    with open(BENCH_FIG10, encoding="utf-8") as fh:
        committed = json.load(fh)["points"]
    return [name for name, out in doc["jobs"].items()
            if committed[name]["latency_us"] != out["latency_us"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    parser.add_argument("--write", action="store_true",
                        help="overwrite reference/<workload>.json")
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload or workloads.WORKLOADS:
        doc = compute(workload)
        if workload == "osu_fig10":
            off = check_fig10(doc)
            if off:
                print(f"{workload}: latency differs from BENCH_fig10.json "
                      f"for {', '.join(off)}", file=sys.stderr)
                return 1
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        if args.write:
            workloads.REFERENCE_DIR.mkdir(exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
                fh.write("\n")
            print(f"wrote {path.name}: {len(doc['jobs'])} jobs, "
                  f"rank_colls={doc['rank_colls']}")
            continue
        reference = workloads.load_reference(workload)
        bad = workloads.mismatches(reference, doc["jobs"])
        if reference["rank_colls"] != doc["rank_colls"]:
            bad["rank_colls"] = "differs"
        for name, reason in bad.items():
            print(f"{workload}: {name}: {reason}", file=sys.stderr)
        print(f"{workload}: {'MISMATCH' if bad else 'ok'}")
        status = status or int(bool(bad))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
