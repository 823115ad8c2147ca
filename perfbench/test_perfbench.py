"""Self-tests of the benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest perfbench -q

They run single jobs in-process, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import workloads

BPMF_ORI = ("bpmf/c240/it3/ori",)


def traced_pass(workload, only):
    ledger = layers.Ledger()
    doc = workloads.run_pass(workload, seed=7, ledger=ledger, only=only)
    assert doc["failed"] == 0, doc["mismatches"]
    return doc


def self_times(doc) -> dict[str, float]:
    return {layers.SELF_METRIC[layer]: doc["layers"][layers.SELF_METRIC[layer]]
            for layer in layers.LAYERS}


def test_self_times_and_unattributed_sum_to_traced_wall():
    doc = traced_pass("observe_fig9", ("n16x24/512el/hybrid/p2p",))
    selfs = self_times(doc)
    unattributed = doc["layers"]["unattributed_s"]
    assert all(v >= 0 for v in selfs.values())
    assert unattributed >= 0
    assert math.isclose(sum(selfs.values()) + unattributed, doc["wall_s"],
                        rel_tol=1e-9)
    assert doc["layers"]["trace.records"] > 0
    assert doc["layers"]["trace.self_s"] > 0
    assert doc["layers"]["replay.hits"] == 0


def test_layer_timing_keeps_replay_exact():
    # Replay parks, decides, records and applies under the wrappers; the
    # reference check inside the pass proves virtual time is unchanged.
    doc = traced_pass("osu_fig10", ("r1024/1el/hybrid",))
    assert doc["layers"]["replay.hits"] > 0
    assert doc["layers"]["replay.records"] > 0
    assert doc["layers"]["replay.decide_s"] > 0
    assert doc["layers"]["trace.self_s"] == 0


def test_untimed_pass_probes_host_speed_without_moving_outputs():
    doc = workloads.run_pass("observe_fig9", 7,
                             only=("n16x24/512el/hybrid/p2p",))
    assert doc["failed"] == 0, doc["mismatches"]
    assert doc["probe_samples"] > 0
    assert math.isclose(
        doc["norm_wall_s"],
        doc["wall_s"] * (workloads.SpeedProbe.REFERENCE_S / doc["probe_s"])
        ** workloads.SpeedProbe.ELASTICITY)


def test_injected_cost_shows_in_its_layer_and_in_wall(monkeypatch):
    from repro.mpi.p2p import MessageEngine

    base = traced_pass("apps_fig11_12", BPMF_ORI)
    # Add the layer's measured self time again, spread over its sends.
    extra = base["layers"]["mpi.p2p.self_s"]
    delay = extra / base["layers"]["mpi.p2p.messages"]
    original = MessageEngine.post_send

    def slow_post_send(self, *args, **kwargs):
        end = time.perf_counter() + delay
        while time.perf_counter() < end:
            pass
        return original(self, *args, **kwargs)

    def untimed_wall():
        return workloads.run_pass("apps_fig11_12", 7,
                                  only=BPMF_ORI)["norm_wall_s"]

    # The host's speed drifts, so compare shares of the traced wall and
    # medians of alternating untimed passes, not single walls.
    base_walls, slow_walls = [], []
    for _ in range(3):
        base_walls.append(untimed_wall())
        with monkeypatch.context() as patched:
            patched.setattr(MessageEngine, "post_send", slow_post_send)
            slow_walls.append(untimed_wall())
    with monkeypatch.context() as patched:
        patched.setattr(MessageEngine, "post_send", slow_post_send)
        slow = traced_pass("apps_fig11_12", BPMF_ORI)

    before, after = self_times(base), self_times(slow)
    share_rises = {name: after[name] / sum(after.values())
                   - before[name] / sum(before.values()) for name in before}
    top = max(share_rises, key=share_rises.get)
    assert top == "mpi.p2p.self_s", f"largest self_s rise: {top} {share_rises}"
    assert after[top] - before[top] > 0.5 * extra
    assert statistics.median(slow_walls) > statistics.median(base_walls)


def test_references_agree_with_committed_fig10():
    bench = Path(workloads.HERE.parent, "BENCH_fig10.json")
    committed = json.loads(bench.read_text())["points"]
    reference = workloads.load_reference("osu_fig10")
    assert reference["jobs"]
    for name, out in reference["jobs"].items():
        assert out["latency_us"] == committed[name]["latency_us"]


def test_seed_orders_jobs():
    orders = {tuple(job.name for job in workloads.build_jobs("apps_fig11_12",
                                                             seed))
              for seed in range(8)}
    assert len(orders) > 1
    assert all(sorted(order) == sorted(next(iter(orders)))
               for order in orders)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_program_sources(tmp_path, trace):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "observe_fig9",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
