"""Definitions of every regenerable paper artifact (figures + ablations).

Paper → figure id map:

========  =====================================================
fig7      Single full node, Hy_Allgather vs Allgather (Fig 7)
fig8a     One rank/node on Vulcan/OpenMPI (Fig 8a)
fig8b     One rank/node on Hazel Hen/Cray MPI (Fig 8b)
fig9a     64 nodes, ppn sweep, 512 elements (Fig 9a)
fig9b     64 nodes, ppn sweep, 16384 elements (Fig 9b)
fig10     Irregularly populated nodes, 1024 cores (Fig 10)
fig11a-d  SUMMA per-core blocks 8/64/128/256 (Fig 11a-d)
fig12     BPMF strong scaling ratio (Fig 12)
abl_sync       Barrier vs shared-flag synchronization (§6)
abl_pipeline   Plain vs pipelined large-message exchange (§7/[30])
abl_placement  SMP vs round-robin placement (§6)
abl_multileader  Single- vs multi-leader pure-MPI baseline ([14])
========  =====================================================

Latencies are reported in microseconds, application times in
milliseconds, matching the paper's axes.
"""

from __future__ import annotations

from typing import Any

from repro.bench.harness import Figure
from repro.bench.osu import hybrid_allgather_program
from repro.core.sync import BarrierSync, FlagSync
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import run_program

__all__ = ["FIGURES", "get_figure"]

_US = 1.0e6
_MS = 1.0e3


def cached_latency_us(*args, **kwargs):
    """Lazy alias of :func:`repro.bench.sweep.cached_latency_us` — the
    allgather figures measure every point through the sweep layer (and
    its ``$REPRO_SWEEP_CACHE`` cache).  Imported at call time so that
    ``python -m repro.bench.sweep`` does not re-import this package's
    eager figure registry."""
    from repro.bench.sweep import cached_latency_us as measure

    return measure(*args, **kwargs)

#: The paper's message-size axis: 2^0 .. 2^15 doubles.
_PAPER_SIZES = [2**k for k in range(0, 16, 2)] + [2**15]
_QUICK_SIZES = [1, 64, 1024, 16384]


def _dedup(seq: list[int]) -> list[int]:
    return sorted(set(seq))


# ---------------------------------------------------------------------------
# Fig 7 — single node
# ---------------------------------------------------------------------------

def _fig7_sweep(mode: str) -> list[dict]:
    sizes = _PAPER_SIZES if mode == "paper" else _QUICK_SIZES
    return [{"elements": n} for n in _dedup(sizes)]


def _fig7_measure(point: dict, mode: str) -> dict:
    nbytes = point["elements"] * 8
    counts = (24,)
    out: dict[str, Any] = {}
    for label, machine in (("cray", "hazel_hen"), ("ompi", "vulcan")):
        out[f"hy_{label}_us"] = cached_latency_us(
            machine, counts, nbytes, "hybrid"
        )
        out[f"allgather_{label}_us"] = cached_latency_us(
            machine, counts, nbytes, "pure"
        )
    return out


# ---------------------------------------------------------------------------
# Fig 8 — one rank per node
# ---------------------------------------------------------------------------

def _fig8_sweep(mode: str) -> list[dict]:
    sizes = _PAPER_SIZES if mode == "paper" else _QUICK_SIZES
    return [{"elements": n} for n in _dedup(sizes)]


def _fig8_measure(machine: str, point: dict, mode: str) -> dict:
    nbytes = point["elements"] * 8
    node_counts = (4, 16, 64) if mode == "paper" else (4, 16)
    out: dict[str, Any] = {}
    for nodes in node_counts:
        counts = (1,) * nodes
        out[f"hy_{nodes}_us"] = cached_latency_us(
            machine, counts, nbytes, "hybrid"
        )
        out[f"allgather_{nodes}_us"] = cached_latency_us(
            machine, counts, nbytes, "pure"
        )
    return out


# ---------------------------------------------------------------------------
# Fig 9 — ppn sweep at fixed node count
# ---------------------------------------------------------------------------

def _fig9_sweep(mode: str) -> list[dict]:
    ppns = range(3, 25, 3) if mode == "paper" else (3, 12, 24)
    return [{"ppn": p} for p in ppns]


def _fig9_measure(elements: int, point: dict, mode: str) -> dict:
    nodes = 64 if mode == "paper" else 16
    nbytes = elements * 8
    counts = (point["ppn"],) * nodes
    out: dict[str, Any] = {"nodes": nodes}
    for label, machine in (("cray", "hazel_hen"), ("ompi", "vulcan")):
        hy = cached_latency_us(machine, counts, nbytes, "hybrid")
        pure = cached_latency_us(machine, counts, nbytes, "pure")
        out[f"hy_{label}_us"] = hy
        out[f"allgather_{label}_us"] = pure
        out[f"ratio_{label}"] = pure / hy
    return out


# ---------------------------------------------------------------------------
# Fig 10 — irregular node population
# ---------------------------------------------------------------------------

def _fig10_sweep(mode: str) -> list[dict]:
    sizes = _PAPER_SIZES if mode == "paper" else _QUICK_SIZES
    return [{"elements": n} for n in _dedup(sizes)]


def _fig10_measure(point: dict, mode: str) -> dict:
    # Paper: 24 ranks on 42 nodes plus 16 on one more (1024 ranks).
    counts = [24] * 42 + [16] if mode == "paper" else [24] * 6 + [16]
    nbytes = point["elements"] * 8
    out: dict[str, Any] = {"ranks": sum(counts)}
    for label, machine in (("cray", "hazel_hen"), ("ompi", "vulcan")):
        # The irregular population routes the pure variant to
        # allgatherv automatically (SweepPoint.is_irregular).
        hy = cached_latency_us(machine, counts, nbytes, "hybrid")
        pure = cached_latency_us(machine, counts, nbytes, "pure")
        out[f"hy_{label}_us"] = hy
        out[f"allgatherv_{label}_us"] = pure
        out[f"ratio_{label}"] = pure / hy
    return out


# ---------------------------------------------------------------------------
# Fig 11 — SUMMA
# ---------------------------------------------------------------------------

def _summa_cores(mode: str) -> list[int]:
    return [4, 16, 64, 256, 1024] if mode == "paper" else [4, 16, 64]


def _fig11_sweep(mode: str) -> list[dict]:
    return [{"cores": c} for c in _summa_cores(mode)]


def _fig11_measure(block: int, point: dict, mode: str) -> dict:
    from repro.apps.summa import SummaConfig, summa_program

    cores = point["cores"]
    full, rem = divmod(cores, 24)
    placement = Placement.irregular([24] * full + ([rem] if rem else []))
    spec = hazel_hen(max(placement.num_nodes, 1))
    out: dict[str, Any] = {}
    for variant, key in (("ori", "ori_ms"), ("hybrid", "hy_ms")):
        cfg = SummaConfig(block=block, variant=variant)
        result = run_program(
            spec, None, summa_program,
            placement=placement,
            payload="cost-only",
            program_kwargs={"config": cfg},
        )
        out[key] = _MS * max(r["total"] for r in result.returns)
    out["ratio"] = out["ori_ms"] / out["hy_ms"]
    return out


# ---------------------------------------------------------------------------
# Fig 12 — BPMF
# ---------------------------------------------------------------------------

def _fig12_sweep(mode: str) -> list[dict]:
    cores = (
        [24, 120, 240, 360, 480, 1024] if mode == "paper" else [24, 120, 240]
    )
    return [{"cores": c} for c in cores]


def _fig12_measure(point: dict, mode: str) -> dict:
    from repro.apps.bpmf import BPMFConfig, bpmf_program

    cores = point["cores"]
    iterations = 20 if mode == "paper" else 3
    full, rem = divmod(cores, 24)
    placement = Placement.irregular([24] * full + ([rem] if rem else []))
    spec = hazel_hen(max(placement.num_nodes, 1))
    out: dict[str, Any] = {"iterations": iterations}
    for variant, key in (("ori", "ori_tt_ms"), ("hybrid", "hy_tt_ms")):
        cfg = BPMFConfig(iterations=iterations, variant=variant)
        result = run_program(
            spec, None, bpmf_program,
            placement=placement,
            payload="cost-only",
            program_kwargs={"config": cfg},
        )
        out[key] = _MS * max(r["total"] for r in result.returns)
    out["ratio"] = out["ori_tt_ms"] / out["hy_tt_ms"]
    return out


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def _abl_sync_sweep(mode: str) -> list[dict]:
    sizes = [1, 512, 4096, 16384] if mode == "paper" else [1, 4096]
    return [{"elements": n} for n in sizes]


def _abl_sync_measure(point: dict, mode: str) -> dict:
    nodes = 4
    placement = Placement.block(nodes, 24)
    spec = hazel_hen(nodes)
    nbytes = point["elements"] * 8
    out: dict[str, Any] = {}
    for label, sync in (("barrier", BarrierSync()), ("flags", FlagSync())):
        result = run_program(
            spec, None, hybrid_allgather_program,
            placement=placement,
            payload="cost-only",
            program_kwargs={"nbytes_per_rank": nbytes, "sync": sync},
        )
        out[f"{label}_us"] = _US * max(result.returns)
    out["speedup"] = out["barrier_us"] / out["flags_us"]
    return out


def _abl_pipeline_sweep(mode: str) -> list[dict]:
    sizes = (
        [32768, 65536, 131072, 262144] if mode == "paper" else [32768, 131072]
    )
    return [{"elements": n} for n in sizes]


def _abl_pipeline_measure(point: dict, mode: str) -> dict:
    # Traeff et al.'s pipelining targets *irregular* all-gathers: one
    # heavily-populated node's block otherwise stalls the ring at full
    # block granularity.  Population: one 24-rank node + seven 3-rank
    # nodes (block skew 8x).
    counts = [24] + [3] * 7
    placement = Placement.irregular(counts)
    spec = hazel_hen(len(counts))
    nbytes = point["elements"] * 8
    out: dict[str, Any] = {"max_block_mb": 24 * nbytes / 1e6}
    for label, pipelined in (("plain", False), ("pipelined", True)):
        result = run_program(
            spec, None, hybrid_allgather_program,
            placement=placement,
            payload="cost-only",
            program_kwargs={
                "nbytes_per_rank": nbytes, "pipelined": pipelined,
                "chunk_bytes": 256 * 1024,
            },
        )
        out[f"{label}_us"] = _US * max(result.returns)
    out["speedup"] = out["plain_us"] / out["pipelined_us"]
    return out


def _abl_placement_sweep(mode: str) -> list[dict]:
    sizes = [64, 1024, 16384] if mode == "paper" else [64, 4096]
    return [{"elements": n} for n in sizes]


def _abl_placement_measure(point: dict, mode: str) -> dict:
    nodes, ppn = 4, 12
    spec = hazel_hen(nodes)
    nbytes = point["elements"] * 8
    rr = Placement.round_robin(nodes, ppn)
    out: dict[str, Any] = {}
    out["smp_us"] = cached_latency_us(
        "hazel_hen", (ppn,) * nodes, nbytes, "hybrid"
    )
    # Round-robin placement, remedy 2 (§6): node-sorted rank array —
    # the default layout, no packing needed.
    result = run_program(
        spec, None, hybrid_allgather_program,
        placement=rr, payload="cost-only",
        program_kwargs={"nbytes_per_rank": nbytes},
    )
    out["rr_nodesorted_us"] = _US * max(result.returns)
    # Round-robin placement, remedy 1 (§6): derived-datatype packing.
    result = run_program(
        spec, None, hybrid_allgather_program,
        placement=rr, payload="cost-only",
        program_kwargs={"nbytes_per_rank": nbytes, "pack_datatypes": True},
    )
    out["rr_datatypes_us"] = _US * max(result.returns)
    out["packing_penalty"] = out["rr_datatypes_us"] / out["rr_nodesorted_us"]
    return out


def _abl_multileader_sweep(mode: str) -> list[dict]:
    sizes = [512, 4096, 16384] if mode == "paper" else [512, 16384]
    return [{"elements": n} for n in sizes]


def _multileader_program(mpi, nbytes_per_rank: int, leaders: int):
    from repro.mpi.collectives.hierarchical import multileader_allgather
    from repro.mpi.datatypes import Bytes

    comm = mpi.world
    payload = Bytes(nbytes_per_rank)
    # Warm-up builds the leader hierarchy (one-off, excluded from timing).
    yield from multileader_allgather(comm, payload, 2**27, leaders)
    yield from comm.barrier()
    t0 = mpi.now
    yield from multileader_allgather(comm, payload, 2**27 + 100, leaders)
    return mpi.now - t0


def _abl_noise_sweep(mode: str) -> list[dict]:
    rates = [0.0, 0.002, 0.01, 0.05] if mode == "paper" else [0.0, 0.01]
    return [{"detour_rate": r} for r in rates]


def _abl_noise_measure(point: dict, mode: str) -> dict:
    """Noise-sensitivity: slowdown factor of each design under identical
    injected OS noise (SUMMA-like bcast+compute loop)."""
    from repro.machine.noise import NoiseModel
    from repro.apps.summa import SummaConfig, summa_program

    nodes = 2
    spec = hazel_hen(nodes)
    noise = (
        None
        if point["detour_rate"] == 0.0
        else NoiseModel(jitter=0.02, detour_rate=point["detour_rate"])
    )
    # SUMMA needs a square rank count: 36 ranks over the two 24-core
    # nodes (24 + 12).
    pl = Placement.irregular([24, 12])
    out: dict[str, Any] = {}
    for variant, key in (("ori", "ori_ms"), ("hybrid", "hy_ms")):
        cfg = SummaConfig(block=48, variant=variant)
        result = run_program(
            spec, None, summa_program,
            placement=pl, payload="cost-only", noise=noise,
            program_kwargs={"config": cfg},
        )
        out[key] = _MS * max(r["total"] for r in result.returns)
    out["ratio"] = out["ori_ms"] / out["hy_ms"]
    return out


def _ext_scaling_sweep(mode: str) -> list[dict]:
    nodes = [1, 2, 4, 8, 16, 32] if mode == "paper" else [1, 2, 4, 8]
    return [{"nodes": n} for n in nodes]


def _ext_weak_scaling_measure(point: dict, mode: str) -> dict:
    """Weak scaling (beyond the paper): fixed 1024 doubles *per rank*,
    growing node count at 24 ranks/node."""
    nodes = point["nodes"]
    counts = (24,) * nodes
    nbytes = 1024 * 8
    hy = cached_latency_us("hazel_hen", counts, nbytes, "hybrid")
    pure = cached_latency_us("hazel_hen", counts, nbytes, "pure")
    return {
        "ranks": nodes * 24,
        "hy_us": hy,
        "pure_us": pure,
        "ratio": pure / hy,
    }


def _ext_strong_scaling_measure(point: dict, mode: str) -> dict:
    """Strong scaling (beyond the paper): fixed 3 MB *total* result,
    growing node count at 24 ranks/node."""
    nodes = point["nodes"]
    counts = (24,) * nodes
    total = 3 * 1024 * 1024
    nbytes = max(8, total // (nodes * 24))
    hy = cached_latency_us("hazel_hen", counts, nbytes, "hybrid")
    pure = cached_latency_us("hazel_hen", counts, nbytes, "pure")
    return {
        "ranks": nodes * 24,
        "per_rank_kb": nbytes / 1024,
        "hy_us": hy,
        "pure_us": pure,
        "ratio": pure / hy,
    }


def _ext_transport_sweep(mode: str) -> list[dict]:
    elements = (
        [1, 16, 64, 256, 1024, 8192, 32768]
        if mode == "paper"
        else [1, 256, 8192, 32768]
    )
    return [{"elements": n} for n in elements]


#: Short column keys for the registered on-node transports.
_TRANSPORT_KEYS = {
    "shm_two_copy": "shm",
    "cma_single_copy": "cma",
    "pip_direct": "pip",
}


def _ext_transport_measure(point: dict, mode: str) -> dict:
    """Transport/socket crossover: Hy_Allgather on the honest 2-socket
    Hazel Hen node under each on-node transport, with the two-level and
    three-level bridge exchange forced, against the flat node model.

    The three-level exchange runs one bridge per socket concurrently;
    it wins once node blocks are bandwidth-bound and loses at small
    sizes to its extra leader-completion round.
    """
    from repro.machine.transport import TRANSPORTS

    nodes, ppn = 4, 24
    counts = (ppn,) * nodes
    nbytes = point["elements"] * 8
    out: dict[str, Any] = {
        "flat_us": cached_latency_us("hazel_hen", counts, nbytes, "hybrid"),
    }
    for transport in sorted(TRANSPORTS):
        key = _TRANSPORT_KEYS[transport]
        for algo, suffix in (
            ("shared_window", "2l"),
            ("shared_window_3l", "3l"),
        ):
            # algo forces the bridge exchange via ForcedSelection
            # inside the sweep point runner.
            out[f"{key}_{suffix}_us"] = cached_latency_us(
                "hazel_hen_2s", counts, nbytes, "hybrid",
                algo=algo, transport=transport,
            )
    out["shm_3l_speedup"] = out["shm_2l_us"] / out["shm_3l_us"]
    return out


def _abl_multileader_measure(point: dict, mode: str) -> dict:
    nodes, ppn = 8, 24
    placement = Placement.block(nodes, ppn)
    spec = hazel_hen(nodes)
    nbytes = point["elements"] * 8
    out: dict[str, Any] = {}
    for leaders in (1, 2, 4):
        result = run_program(
            spec, None, _multileader_program,
            placement=placement,
            payload="cost-only",
            program_kwargs={"nbytes_per_rank": nbytes, "leaders": leaders},
        )
        out[f"leaders{leaders}_us"] = _US * max(result.returns)
    out["hy_us"] = cached_latency_us("hazel_hen", (ppn,) * nodes, nbytes,
                                     "hybrid")
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _figure(figure_id: str, title: str, claim: str, sweep, measure,
            notes: str = "") -> Figure:
    return Figure(
        figure_id=figure_id,
        title=title,
        paper_claim=claim,
        sweep=sweep,
        measure=measure,
        notes=notes,
    )


FIGURES: dict[str, Figure] = {
    "fig7": _figure(
        "fig7",
        "Fig 7 — Hy_Allgather vs Allgather within one full node (24 ranks)",
        "Hy_Allgather is ~constant in message size and always faster; "
        "Allgather grows steadily.",
        _fig7_sweep,
        _fig7_measure,
    ),
    "fig8a": _figure(
        "fig8a",
        "Fig 8a — one rank per node, OpenMPI on Vulcan (latency, us)",
        "Hy_Allgather (MPI_Allgatherv) is slightly slower than pure "
        "MPI_Allgather; the gap shrinks at larger node counts/messages.",
        _fig8_sweep,
        lambda p, m: _fig8_measure("vulcan", p, m),
    ),
    "fig8b": _figure(
        "fig8b",
        "Fig 8b — one rank per node, Cray MPI on Hazel Hen (latency, us)",
        "Same shape as Fig 8a under the Cray personality.",
        _fig8_sweep,
        lambda p, m: _fig8_measure("hazel_hen", p, m),
    ),
    "fig9a": _figure(
        "fig9a",
        "Fig 9a — 64 nodes, 3..24 ranks/node, 512 elements",
        "Hy_Allgather's advantage grows with ranks per node.",
        _fig9_sweep,
        lambda p, m: _fig9_measure(512, p, m),
        notes="quick mode uses 16 nodes to bound run time",
    ),
    "fig9b": _figure(
        "fig9b",
        "Fig 9b — 64 nodes, 3..24 ranks/node, 16384 elements",
        "Same trend at the large message size.",
        _fig9_sweep,
        lambda p, m: _fig9_measure(16384, p, m),
        notes="quick mode uses 16 nodes to bound run time",
    ),
    "fig10": _figure(
        "fig10",
        "Fig 10 — irregularly populated nodes (42x24 + 1x16 ranks)",
        "Hy_Allgather shows consistently lower latency than pure "
        "MPI_Allgatherv on the irregular population.",
        _fig10_sweep,
        _fig10_measure,
        notes="quick mode scales the population down to 6x24 + 1x16",
    ),
    "fig11a": _figure(
        "fig11a",
        "Fig 11a — SUMMA, per-core block 8x8 (time & ratio)",
        "Hy_SUMMA is faster; small blocks gain the most (up to ~5x in "
        "the paper when all ranks share one node).",
        _fig11_sweep,
        lambda p, m: _fig11_measure(8, p, m),
    ),
    "fig11b": _figure(
        "fig11b",
        "Fig 11b — SUMMA, per-core block 64x64 (time & ratio)",
        "Ratios consistently above one.",
        _fig11_sweep,
        lambda p, m: _fig11_measure(64, p, m),
    ),
    "fig11c": _figure(
        "fig11c",
        "Fig 11c — SUMMA, per-core block 128x128 (time & ratio)",
        "Ratios above one, smaller than for 64x64.",
        _fig11_sweep,
        lambda p, m: _fig11_measure(128, p, m),
    ),
    "fig11d": _figure(
        "fig11d",
        "Fig 11d — SUMMA, per-core block 256x256 (time & ratio)",
        "Ratios above one, approaching one as compute dominates.",
        _fig11_sweep,
        lambda p, m: _fig11_measure(256, p, m),
    ),
    "fig12": _figure(
        "fig12",
        "Fig 12 — BPMF total-time ratio Ori/Hy, 24..1024 cores",
        "Ratio always above one and slowly rising with core count "
        "(paper: +3.9% at 1024 cores, savings up to 10%).",
        _fig12_sweep,
        _fig12_measure,
    ),
    "abl_sync": _figure(
        "abl_sync",
        "Ablation — barrier vs shared-flag synchronization (4 nodes x 24)",
        "Light-weight flags beat the heavy-weight barrier (paper §6).",
        _abl_sync_sweep,
        _abl_sync_measure,
    ),
    "abl_pipeline": _figure(
        "abl_pipeline",
        "Ablation — plain vs pipelined bridge exchange (8 nodes x 24)",
        "Chunked pipelining helps beyond ~256 kB node blocks (paper §7).",
        _abl_pipeline_sweep,
        _abl_pipeline_measure,
    ),
    "abl_placement": _figure(
        "abl_placement",
        "Ablation — SMP vs round-robin rank placement (4 nodes x 12)",
        "The node-sorted layout keeps the hybrid advantage under "
        "non-SMP placement (paper §6).",
        _abl_placement_sweep,
        _abl_placement_measure,
    ),
    "abl_noise": _figure(
        "abl_noise",
        "Ablation — sensitivity to injected OS noise (SUMMA-like loop)",
        "Both designs slow under injected noise; the hybrid advantage "
        "narrows (synchronization is a larger share of its runtime, and "
        "barriers amplify per-rank noise) but persists.",
        _abl_noise_sweep,
        _abl_noise_measure,
    ),
    "ext_weak_scaling": _figure(
        "ext_weak_scaling",
        "Extension — weak scaling, 1024 doubles/rank, 24 ranks/node",
        "Beyond the paper: the hybrid advantage is sustained as nodes "
        "grow with fixed per-rank data.",
        _ext_scaling_sweep,
        _ext_weak_scaling_measure,
    ),
    "ext_strong_scaling": _figure(
        "ext_strong_scaling",
        "Extension — strong scaling, 3 MB total result",
        "Beyond the paper: with shrinking per-rank blocks the hybrid "
        "advantage narrows but persists.",
        _ext_scaling_sweep,
        _ext_strong_scaling_measure,
    ),
    "ext_transport_crossover": _figure(
        "ext_transport_crossover",
        "Extension — on-node transports and 2- vs 3-level Hy_Allgather "
        "(4 nodes x 24, 2-socket nodes)",
        "Beyond the paper: with per-socket bridges the three-level "
        "exchange overtakes the two-level one at mid/large messages on "
        "every transport; single-copy transports shift the crossover.",
        _ext_transport_sweep,
        _ext_transport_measure,
    ),
    "abl_multileader": _figure(
        "abl_multileader",
        "Ablation — multi-leader pure-MPI allgather baseline (8 nodes x 24)",
        "Extra leaders reduce the baseline's leader bottleneck but do "
        "not close the gap to the hybrid approach ([14]).",
        _abl_multileader_sweep,
        _abl_multileader_measure,
    ),
}


def get_figure(figure_id: str) -> Figure:
    """Figure by id; raises KeyError with the known ids listed."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise KeyError(
            f"unknown figure {figure_id!r}; known: {known}"
        ) from None
