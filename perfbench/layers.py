"""Outside-in layer ledger: host time per architecture layer.

:func:`install` replaces the public entry points of each layer with
wrappers that time every call.  Nothing in the program changes; the
wrappers live here and are installed by the benchmark's own process.

A generator entry point is timed *per resumption*: the wrapper resumes
the wrapped generator (delegating ``send`` and ``throw``), and the clock
runs only until it yields again, so virtual time a rank spends parked
is never counted as host work.  Frames nest on one stack (the simulator
is single-threaded and every resumption chain is properly nested), and
a layer's *self* time is its frames' time minus the time of frames of
any layer nested inside them.  Host-clock data stays in the ledger; it
never enters ``JobResult.trace``.

Layers and their entry points:

=================  =====================================================
simulator          ``Engine.run``
machine            ``Machine.memory_copy/intra_message/staged_copy/
                   xsocket_copy/shared_touch``
mpi.p2p            ``MessageEngine.post_send/post_recv``
mpi.comm           public ``Comm`` p2p, split, align and collective
                   methods
mpi.collectives    ``repro.mpi.collectives.dispatch_*``
replay.park        ``ReplaySession.run`` (the dispatch body it runs
                   counts for the layer that called it)
replay.decide      callbacks registered via ``Engine.on_time_advance``
core               ``HybridContext`` create, collectives, buffers and
                   ``i*`` variants
apps               ``summa_program``, ``bpmf_program``
trace              ``Tracer.begin/end/append/emit_replayed``,
                   ``to_chrome_trace`` and its JSON serialization
analysis           ``critical_path_report``
metrics            ``collect_metrics``, ``to_prometheus``
bench              ``bench/osu.py`` OSU loop programs,
                   ``run_traced_allgather``
=================  =====================================================

An ``Engine.run`` called while another is running is a replay pocket
recording: its self time stays with ``simulator`` and its inclusive
time is also reported as ``replay.record_s`` (an overlapping view, not
part of the self-time sum).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable

#: Layers with a self time, in report order.
LAYERS = (
    "simulator", "machine", "mpi.p2p", "mpi.comm", "mpi.collectives",
    "replay.park", "replay.decide", "core", "apps", "trace", "analysis",
    "metrics", "bench",
)

#: Per-layer metric names, as the benchmark reports them.
SELF_METRIC = {layer: f"{layer}.self_s" for layer in LAYERS}
SELF_METRIC["replay.park"] = "replay.park_s"
SELF_METRIC["replay.decide"] = "replay.decide_s"

_clock = time.perf_counter

#: Spans kept per pass; later boundary crossings are timed but not
#: stored, so memory stays bounded on event-heavy workloads.
SPAN_CAP = 100_000

_COMM_METHODS = (
    "send", "isend", "recv", "recv_status", "irecv", "sendrecv", "wait",
    "waitall", "test", "testall", "waitany", "waitsome", "barrier",
    "align", "bcast", "gather", "gatherv", "scatter", "allgather",
    "allgatherv", "reduce", "allreduce", "alltoall", "scan", "exscan",
    "reduce_scatter", "ibarrier", "ibcast", "iallgather", "iallgatherv",
    "ireduce", "iallreduce", "split", "split_type_shared", "subcomm", "dup",
)
_HYBRID_METHODS = (
    "create", "allgather", "bcast", "allreduce", "allgather_buffer",
    "allgatherv_buffer", "bcast_buffer", "iallgather", "ibcast",
    "iallreduce",
)
_MACHINE_METHODS = (
    "memory_copy", "intra_message", "staged_copy", "xsocket_copy",
    "shared_touch",
)

#: ``JobResult`` counters summed into the per-layer counts.
_RESULT_COUNTERS = (
    "events_processed", "intra_copies", "intra_bytes", "network_messages",
    "network_bytes", "sent_messages", "sent_bytes", "replay_hits",
    "replay_misses", "replay_events_saved",
)


class Ledger:
    """Self time and call counts per layer, plus a bounded span log.

    Spans are ``[name, layer, start, end, parent_index, job]`` with host
    ``perf_counter`` seconds; ``parent_index`` is -1 at top level."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.stack: list[list[Any]] = []
        self.spans: list[list[Any]] = []
        #: Index of the job now running (set by the pass).
        self.job = 0
        self.run_depth = 0
        self.records = 0
        self.record_s = 0.0
        self.export_s = 0.0
        self.totals = dict.fromkeys(_RESULT_COUNTERS + ("trace_records",), 0)

    def enter(self, layer: str, name: str) -> None:
        now = _clock()
        stack, spans = self.stack, self.spans
        sid = -1
        if len(spans) < SPAN_CAP:
            sid = len(spans)
            spans.append([name, layer, now, now,
                          stack[-1][3] if stack else -1, self.job])
        stack.append([layer, now, 0.0, sid])

    def exit(self) -> None:
        """Close the innermost frame."""
        now = _clock()
        stack = self.stack
        layer, start, child, sid = stack.pop()
        dur = now - start
        self.self_s[layer] += dur - child
        if stack:
            stack[-1][2] += dur
        if sid >= 0:
            self.spans[sid][3] = now

    def drive(self, gen, layer: str, name: str):
        """Generator delegating to *gen*, timing each resumption as a
        frame of *layer* (PEP 380 ``yield from`` semantics)."""
        enter, exit_ = self.enter, self.exit
        send, throw = gen.send, gen.throw
        value: Any = None
        exc: BaseException | None = None
        while True:
            enter(layer, name)
            try:
                out = send(value) if exc is None else throw(exc)
            except StopIteration as stop:
                exit_()
                return stop.value
            except BaseException:
                exit_()
                raise
            exit_()
            try:
                value = yield out
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into gen
                exc = err

    def timed(self, layer: str, fn: Callable, name: str | None = None
              ) -> Callable:
        """*fn* wrapped as a counted entry point of *layer*."""
        name = name or fn.__qualname__
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            drive = self.drive

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[layer] += 1
                return drive(fn(*args, **kwargs), layer, name)

            return gen_wrapper
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    # -- report ------------------------------------------------------------
    def add_result(self, result) -> None:
        """Fold one job's ``JobResult`` counters into the pass totals."""
        totals = self.totals
        for attr in _RESULT_COUNTERS:
            totals[attr] += getattr(result, attr)
        totals["trace_records"] += len(result.trace or ())

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric of one pass with traced wall *wall_s*."""
        totals = self.totals
        out = {SELF_METRIC[layer]: self.self_s[layer] for layer in LAYERS}
        hits, misses = totals["replay_hits"], totals["replay_misses"]
        out.update({
            "simulator.events": totals["events_processed"],
            "simulator.runs": self.calls["simulator"],
            "machine.calls": self.calls["machine"],
            "machine.intra_copies": totals["intra_copies"],
            "machine.intra_bytes": totals["intra_bytes"],
            "machine.network_messages": totals["network_messages"],
            "machine.network_bytes": totals["network_bytes"],
            "mpi.p2p.calls": self.calls["mpi.p2p"],
            "mpi.p2p.messages": totals["sent_messages"],
            "mpi.p2p.bytes": totals["sent_bytes"],
            "mpi.comm.calls": self.calls["mpi.comm"],
            "mpi.collectives.dispatches": self.calls["mpi.collectives"],
            "replay.record_s": self.record_s,
            "replay.records": self.records,
            "replay.hits": hits,
            "replay.misses": misses,
            "replay.events_saved": totals["replay_events_saved"],
            "replay.hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0,
            "core.calls": self.calls["core"],
            "trace.records": totals["trace_records"],
            "trace.export_s": self.export_s,
            "unattributed_s": wall_s - sum(self.self_s.values()),
        })
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Write the span log as a Chrome/Perfetto trace (one track per
        job, microseconds from the first span)."""
        base = self.spans[0][2] if self.spans else 0.0
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": job,
             "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": i, "parent": parent}}
            for i, (name, layer, start, end, parent, job)
            in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def install(ledger: Ledger, workloads_module) -> Callable[[], None]:
    """Install the layer wrappers; returns a function that removes them.

    *workloads_module* is the benchmark's job module, whose
    ``export_chrome_trace`` is timed as the trace export."""
    from repro import metrics as metricslib
    from repro import trace as tracelib
    from repro.analysis import critical_path
    from repro.apps import bpmf, summa
    from repro.bench import observe, osu
    from repro.core.hierarchy import HybridContext
    from repro.machine.model import Machine
    from repro.mpi import collectives
    from repro.mpi.collectives.replay import ReplaySession
    from repro.mpi.comm import Comm
    from repro.mpi.p2p import MessageEngine
    from repro.simulator.engine import Engine

    saved: list[tuple[Any, str, Any]] = []

    def patch(owner, name: str, make: Callable[[Callable], Callable]):
        raw = vars(owner)[name]
        if isinstance(raw, (staticmethod, classmethod)):
            new: Any = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        saved.append((owner, name, raw))
        setattr(owner, name, new)

    def layer(owner, names, layer_name):
        for name in names:
            patch(owner, name, functools.partial(ledger.timed, layer_name))

    layer(Machine, _MACHINE_METHODS, "machine")
    layer(MessageEngine, ("post_send", "post_recv"), "mpi.p2p")
    layer(Comm, _COMM_METHODS, "mpi.comm")
    layer(collectives, [n for n in vars(collectives)
                        if n.startswith("dispatch_")], "mpi.collectives")
    layer(HybridContext, _HYBRID_METHODS, "core")
    layer(summa, ("summa_program",), "apps")
    layer(bpmf, ("bpmf_program",), "apps")
    layer(tracelib.Tracer, ("begin", "end", "append", "emit_replayed"),
          "trace")
    layer(tracelib, ("to_chrome_trace",), "trace")
    layer(critical_path, ("critical_path_report",), "analysis")
    layer(metricslib, ("collect_metrics", "to_prometheus"), "metrics")
    layer(osu, ("osu_latency_program", "hybrid_allgather_program",
                "pure_allgather_program"), "bench")
    layer(observe, ("run_traced_allgather",), "bench")

    def timed_export(fn):
        inner = ledger.timed("trace", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return inner(*args, **kwargs)
            finally:
                ledger.export_s += _clock() - t0

        return wrapper

    patch(workloads_module, "export_chrome_trace", timed_export)

    def timed_run(fn):
        inner = ledger.timed("simulator", fn, "Engine.run")

        @functools.wraps(fn)
        def run(*args, **kwargs):
            nested = ledger.run_depth > 0  # a replay pocket recording
            ledger.records += nested
            ledger.run_depth += 1
            t0 = _clock()
            try:
                return inner(*args, **kwargs)
            finally:
                ledger.run_depth -= 1
                if nested:
                    ledger.record_s += _clock() - t0

        return run

    patch(Engine, "run", timed_run)

    def timed_hooks(fn):
        @functools.wraps(fn)
        def on_time_advance(self, hook):
            return fn(self, ledger.timed("replay.decide", hook, "decide"))

        return on_time_advance

    patch(Engine, "on_time_advance", timed_hooks)

    def timed_park(fn):
        @functools.wraps(fn)
        def run(self, comm, op, sig, inner):
            # The dispatch body belongs to whichever layer routed it here
            # (mpi.collectives for dispatch_*, core for hybrid ops).
            caller = ledger.stack[-1][0] if ledger.stack else None
            if caller is not None:
                body = inner

                def inner():
                    return ledger.drive(body(), caller, "replay.body")

            return ledger.drive(fn(self, comm, op, sig, inner),
                                "replay.park", "ReplaySession.run")

        return run

    patch(ReplaySession, "run", timed_park)

    def restore() -> None:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)

    return restore
