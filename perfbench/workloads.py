"""Benchmark workloads: job lists, pinned virtual-time outputs, one pass.

A *pass* runs every job of one workload once, in a fresh interpreter,
one job after the other (a closed loop with a single client), starting
from a cold replay record cache.  ``run.py`` starts passes as child
processes of this file::

    python3 perfbench/workloads.py WORKLOAD SEED MODE SPAWNED_AT_NS CALIBRATE

``MODE`` is ``untimed`` (end-to-end figures; :class:`SpeedProbe`
samples the host's speed while the jobs run), ``traced`` (the layer
ledger of :mod:`layers` is installed first) or ``setup`` (stop at the
first job's start: set-up time only).  ``SPAWNED_AT_NS`` is the
parent's ``time.monotonic_ns()`` just before it started this process,
so set-up time covers interpreter start and imports.  ``CALIBRATE`` 1
times the host calibration loop after the jobs.  The pass prints one
JSON line.

The seed sets the order of the jobs and the ``MPIJob`` seed.  Virtual
time does not depend on either, so every pass of every seed must
reproduce the outputs pinned in ``reference/<workload>.json`` (written
only by ``regenerate.py``).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import heapq
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

WORKLOADS = ("osu_fig10", "apps_fig11_12", "observe_fig9")

@dataclass
class Job:
    """One simulation of a workload; ``run()`` returns its JobResult."""

    name: str
    run: Callable[[], Any]


def _osu_jobs(seed: int) -> list[Job]:
    """Fig 10: 42x24+16 ranks, hybrid and pure at 1 and 1024 elements,
    through the OSU loop exactly as ``repro-perf`` runs it (cost-only
    payloads, fast path, ``replay="loop"``, default reps and warm-up)."""
    from repro.bench import osu
    from repro.bench import sweep as sweeplib
    from repro.mpi import runtime

    jobs = []
    for name, point in sweeplib.figure_points("fig10"):
        if "/16384el/" in name:
            continue
        spec, placement = point.spec(), point.placement()
        kwargs: dict[str, Any] = {"nbytes_per_rank": point.nbytes}
        if point.variant == "pure" and point.is_irregular:
            kwargs["irregular"] = True

        def run(point=point, spec=spec, placement=placement, kwargs=kwargs):
            program = (osu.hybrid_allgather_program
                       if point.variant == "hybrid"
                       else osu.pure_allgather_program)
            return runtime.run_program(
                spec, None, program, placement=placement,
                payload=point.payload, fast_path=point.fast_path,
                replay="loop", seed=seed, program_kwargs=kwargs,
            )

        jobs.append(Job(name, run))
    return jobs


def _apps_jobs(seed: int) -> list[Job]:
    """Fig 11c SUMMA (256 cores, b128) and Fig 12 quick BPMF (240 cores,
    3 iterations), ori and hybrid, cost-only with replay off as
    ``bench/figures.py`` runs them."""
    from repro.apps import bpmf, summa
    from repro.machine.placement import Placement
    from repro.machine.presets import hazel_hen
    from repro.mpi import runtime

    def layout(cores: int):
        full, rem = divmod(cores, 24)
        placement = Placement.irregular([24] * full + ([rem] if rem else []))
        return hazel_hen(max(placement.num_nodes, 1)), placement

    cases = []
    for variant in ("ori", "hybrid"):
        cases.append((f"summa/c256/b128/{variant}", summa, "summa_program",
                      summa.SummaConfig(block=128, variant=variant), 256))
        cases.append((f"bpmf/c240/it3/{variant}", bpmf, "bpmf_program",
                      bpmf.BPMFConfig(iterations=3, variant=variant), 240))
    jobs = []
    for name, module, attr, config, cores in cases:
        spec, placement = layout(cores)

        def run(module=module, attr=attr, config=config, spec=spec,
                placement=placement):
            return runtime.run_program(
                spec, None, getattr(module, attr), placement=placement,
                payload="cost-only", replay=False, seed=seed,
                program_kwargs={"config": config},
            )

        jobs.append(Job(name, run))
    return jobs


def export_chrome_trace(trace: list[dict]) -> str:
    """Chrome/Perfetto export of a span stream, serialized to JSON."""
    from repro import trace as tracelib

    return json.dumps(tracelib.to_chrome_trace(trace))


def _observe_jobs(seed: int) -> list[Job]:
    """Fig 9 config traced at detail ``p2p`` (``repro-bench --trace-out
    --trace-detail p2p``): 16x24 ranks, 512 elements, default reps,
    replay off as in the CLI, then its three consumers."""
    from repro import metrics
    from repro.analysis import critical_path
    from repro.bench import observe
    from repro.mpi import runtime

    # run_traced_allgather takes no seed; hand it the workload's MPIJob
    # seed through the run_program name it calls.
    observe.run_program = functools.partial(runtime.run_program, seed=seed)
    this = sys.modules[__name__]
    jobs = []
    for variant in ("hybrid", "pure"):
        def run(variant=variant):
            result, _tracer = observe.run_traced_allgather(
                variant=variant, nodes=16, ppn=24, elements=512,
                detail="p2p",
            )
            this.export_chrome_trace(result.trace)
            critical_path.critical_path_report(
                result.trace, total_time=result.elapsed
            )
            metrics.to_prometheus(metrics.collect_metrics(result))
            return result

        jobs.append(Job(f"n16x24/512el/{variant}/p2p", run))
    return jobs


_BUILDERS = {
    "osu_fig10": _osu_jobs,
    "apps_fig11_12": _apps_jobs,
    "observe_fig9": _observe_jobs,
}


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order the seed selects."""
    jobs = _BUILDERS[workload](seed)
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Virtual-time outputs and the reference check
# ---------------------------------------------------------------------------

def _plain(value: Any) -> Any:
    """JSON round trip: tuples become lists, NumPy scalars plain numbers.
    Floats keep every bit (``repr`` round-trips)."""
    return json.loads(json.dumps(
        value, default=lambda v: v.item() if hasattr(v, "item") else str(v)
    ))


def outputs(workload: str, result) -> dict:
    """The virtual-time outputs of one job that the reference pins.

    Event counts are deliberately absent: replay may remove events."""
    out: dict[str, Any] = {
        "returns": _plain(result.returns),
        "counters": {
            "sent_messages": result.sent_messages,
            "sent_bytes": result.sent_bytes,
            "intra_copies": result.intra_copies,
            "intra_bytes": result.intra_bytes,
            "network_messages": result.network_messages,
            "network_bytes": result.network_bytes,
        },
    }
    if workload in ("osu_fig10", "observe_fig9"):
        out["latency_us"] = max(result.returns) * 1e6
    if workload == "observe_fig9":
        stream = json.dumps(_plain(result.trace), sort_keys=True)
        out["span_sha256"] = hashlib.sha256(stream.encode()).hexdigest()
    return _plain(out)


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(reference: dict, got: dict[str, dict]) -> dict[str, str]:
    """Job name -> reason, for every job whose outputs differ from the
    reference."""
    bad = {}
    for name, out in got.items():
        want = reference["jobs"].get(name)
        if want is None:
            bad[name] = "no reference"
            continue
        for key in sorted(set(want) | set(out)):
            if want.get(key) != out.get(key):
                bad[name] = f"{key} differs"
                break
    return bad


# ---------------------------------------------------------------------------
# Host calibration
# ---------------------------------------------------------------------------

def _heap_loop(generators: int, steps: int) -> float:
    """Seconds to run *generators* generators of *steps* steps each on a
    heap: the same kind of work as the simulator's event loop."""
    def worker(n):
        for i in range(n):
            yield (i * 7919) % 97

    t0 = time.perf_counter()
    heap = [(0.0, i, worker(steps)) for i in range(generators)]
    heapq.heapify(heap)
    while heap:
        t, i, gen = heapq.heappop(heap)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        heapq.heappush(heap, (t + 1.0 + delay, i, gen))
    return time.perf_counter() - t0


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed pure-Python generator/heap loop (best of
    *rounds*), so walls from different hosts can be rescaled by it."""
    return min(_heap_loop(200, 1500) for _ in range(rounds))


class SpeedProbe:
    """Samples the host's speed while jobs run, from the same thread.

    The host's speed drifts by tens of percent over seconds to minutes
    (see README), far more than the changes the benchmark must resolve.
    While armed, a ``SIGALRM`` every :attr:`PERIOD_S` of wall time runs
    one short heap loop with the collector off (so its time does not
    depend on the program's heap) and keeps its time.  Jobs are timed
    with the probe's own time (:attr:`spent`) taken off, and
    :meth:`scale` turns the median sample into the factor that converts
    the pass's wall to the reference host speed."""

    PERIOD_S = 0.1
    GENERATORS, STEPS = 50, 150
    #: Median probe time on the reference host (2-vCPU x86-64 Xeon,
    #: Python 3.11, quiet periods); normalized walls are in its seconds.
    REFERENCE_S = 0.0036
    #: How the workloads' walls follow the probe when the host slows:
    #: log(wall) against log(probe median) over 321 passes of the three
    #: workloads on the reference host has slope 0.65-0.72 (pooled
    #: 0.69).  The small probe loop slows more than the memory-heavy
    #: simulations, so dividing by the full probe ratio over-corrects.
    ELASTICITY = 0.7

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(_heap_loop(self.GENERATORS, self.STEPS))
        finally:
            if collecting:
                gc.enable()
            self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def scale(self) -> float:
        """(Reference probe time / median probe time of this pass) raised
        to :attr:`ELASTICITY`."""
        if not self.samples:
            self._sample()
        ratio = self.REFERENCE_S / statistics.median(self.samples)
        return ratio ** self.ELASTICITY


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

def setup_times(spawned_at_ns: int, probe: SpeedProbe) -> dict[str, float]:
    """Set-up time from the process's spawn to now, without the time of
    *probe* (started when the pass's process began, stopped here), as
    measured and converted to the reference speed like the walls."""
    probe.stop()
    measured = (time.monotonic_ns() - spawned_at_ns) / 1e9 - probe.spent
    return {"setup_s": measured * probe.scale(),
            "measured_setup_s": measured}


def run_pass(workload: str, seed: int, ledger=None,
             setup: tuple[int, SpeedProbe] | None = None,
             only: tuple[str, ...] | None = None) -> dict:
    """Run every job of *workload* once and check it against the
    reference.  With a :class:`layers.Ledger`, the layer wrappers are
    installed before set-up ends and the per-layer figures are added.
    *setup* is the process's spawn time and the probe running since it
    began, for :func:`setup_times`.  *only* restricts the pass to the
    named jobs (used by the tests)."""
    restore = None
    if ledger is not None:
        import layers

        restore = layers.install(ledger, sys.modules[__name__])
    try:
        jobs = build_jobs(workload, seed)
        if only is not None:
            jobs = [job for job in jobs if job.name in only]
        reference = load_reference(workload)
        doc: dict[str, Any] = {"workload": workload, "seed": seed}
        if setup is not None:
            doc.update(setup_times(*setup))
        got = {}
        wall = 0.0
        # Untimed passes sample the host's speed; the layer ledger's own
        # timing would be disturbed by the samples, so traced ones do not.
        probe = SpeedProbe()
        for index, job in enumerate(jobs):
            if ledger is not None:
                ledger.job = index
            spent = probe.spent
            with probe if ledger is None else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = job.run()
            wall += time.perf_counter() - t0 - (probe.spent - spent)
            # Outputs are taken between jobs, off the clock, so no job's
            # result outlives it and inflates the next one's memory.
            got[job.name] = outputs(workload, result)
            if ledger is not None:
                ledger.add_result(result)
            del result
        doc["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if ledger is None:
            doc["norm_wall_s"] = wall * probe.scale()
            doc["probe_s"] = statistics.median(probe.samples)
            doc["probe_samples"] = len(probe.samples)
    finally:
        if restore is not None:
            restore()
    bad = mismatches(reference, got)
    doc.update({
        "jobs": [job.name for job in jobs],
        "wall_s": wall,
        "attempted": len(jobs),
        "failed": len(bad),
        "mismatches": bad,
        "rank_colls": reference["rank_colls"] if only is None else None,
    })
    if ledger is not None:
        doc["layers"] = ledger.metrics(wall)
    return doc


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at, cal = argv
    seed_i, spawned_ns = int(seed), int(spawned_at)
    setup_probe = SpeedProbe()
    setup_probe.start()
    if mode == "setup":
        build_jobs(workload, seed_i)
        load_reference(workload)
        print(json.dumps(setup_times(spawned_ns, setup_probe)))
        return 0
    ledger = None
    if mode == "traced":
        import layers

        ledger = layers.Ledger()
    doc = run_pass(workload, seed_i, ledger=ledger,
                   setup=(spawned_ns, setup_probe))
    if cal == "1":
        doc["calibration_s"] = calibrate()
    if ledger is not None:
        OUT_DIR.mkdir(exist_ok=True)
        ledger.write_chrome_trace(OUT_DIR / f"{workload}.layers.trace.json")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
