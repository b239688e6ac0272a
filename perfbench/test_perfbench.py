"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness as H  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


# -- tail rule ---------------------------------------------------------
def test_tail_is_the_eleventh_largest_with_its_percentile():
    found = H.tail([float(v) for v in range(1, 101)])
    assert found.value == 90.0
    assert found.samples == 100
    assert found.beyond == 10
    assert found.percentile == pytest.approx(90.0)
    # exactly ten samples lie above the reported value
    assert sum(v > found.value for v in range(1, 101)) == 10


def test_tail_percentile_rises_with_sample_count():
    found = H.tail(list(range(1000)))
    assert found.percentile == pytest.approx(99.0)
    assert found.value == 989


def test_tail_needs_more_samples_than_beyond():
    assert H.tail(list(range(10))) is None
    smallest = H.tail(list(range(11)))
    assert smallest.value == 0
    assert smallest.percentile == pytest.approx(100.0 / 11)


def test_tail_ignores_input_order():
    values = list(np.random.default_rng(0).permutation(200))
    assert H.tail(values).value == H.tail(sorted(values)).value == 189


def test_chunked_tail_is_the_median_of_chunk_tails():
    slow_spell = [1.0] * 100
    quiet = [float(v % 100) / 1000 for v in range(400)]
    found = H.chunked_tail(quiet[:200] + slow_spell + quiet[200:])
    assert found.chunks == 5 and found.chunk == 100
    assert found.percentile == pytest.approx(90.0)
    # four quiet chunks each have p90 = 0.089; the slow chunk does not win
    assert found.value == pytest.approx(0.089)
    assert H.tail(quiet + slow_spell).value == 1.0


def test_chunked_tail_falls_back_to_the_plain_tail():
    found = H.chunked_tail(list(range(50)))
    assert found.chunks == 1 and found.samples == 50
    assert found.value == H.tail(list(range(50))).value
    assert H.chunked_tail(list(range(5))) is None


def test_catalog_scale_scales_blocks_by_the_reference():
    nominal = H.HostReference.nominal_s
    # the second half ran with the host twice as slow: the blocks and the
    # reference beside them took twice as long
    blocks = ([(16, 0.16, 0.15, nominal)] * 50
              + [(16, 0.32, 0.30, 2 * nominal)] * 50)
    e2e = W.CatalogScale().end_to_end({"latencies": [0.01] * 1605,
                                       "blocks": blocks})
    assert e2e["ops"] == 1605
    assert e2e["ops_per_s"] == pytest.approx(100.0)
    assert e2e["cpu_ms_per_op"] == pytest.approx(9.375)


def test_host_reference_work_is_fixed():
    one, two = H.HostReference(), H.HostReference()
    assert one.sets == two.sets and len(one.sets) == 3000
    assert one.seconds() > 0.0


def test_window_rates_skip_the_first_instant_and_partial_windows():
    times = [0.0, 0.0, 0.5, 0.9, 1.2, 1.7, 2.2, 2.4]
    units = [5, 5, 1, 1, 2, 2, 1, 1]
    assert H.window_rates(times, units) == [2.0, 4.0]
    assert H.window_rates([1.0], [3]) == []


# -- spans and self time -----------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(T.time, "perf_counter", clock)
    tr = T.Tracer()
    outer = tr.open("core.trainer_fit")          # 0 .. 10
    clock.now = 1.0
    a = tr.open("autograd.attention")            # 1 .. 4
    clock.now = 2.0
    d = tr.open("autograd.dropout")              # 2 .. 3
    clock.now = 3.0
    tr.close(d)
    clock.now = 4.0
    tr.close(a)
    clock.now = 6.0
    b = tr.open("autograd.backward")             # 6 .. 9
    clock.now = 9.0
    tr.close(b)
    clock.now = 10.0
    tr.close(outer)

    stats = T.layer_stats(tr.spans)
    assert stats["core.trainer_fit"].busy_s == 10.0
    assert stats["core.trainer_fit"].self_s == 10.0 - 3.0 - 3.0
    assert stats["autograd.attention"].self_s == 2.0
    assert stats["autograd.attention"].busy_s == 3.0
    assert stats["autograd.dropout"].self_s == 1.0
    # self times add up to the outer span's wall time
    assert sum(row.self_s for row in stats.values()) == 10.0
    assert a.parent is outer and d.parent is a and b.parent is outer


def test_recursive_spans_count_busy_time_once(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(T.time, "perf_counter", clock)
    tr = T.Tracer()
    outer = tr.open("privacy.add")               # 0 .. 4
    clock.now = 1.0
    inner = tr.open("privacy.add")               # 1 .. 3
    clock.now = 3.0
    tr.close(inner)
    clock.now = 4.0
    tr.close(outer)
    row = T.layer_stats(tr.spans)["privacy.add"]
    assert row.calls == 2
    assert row.busy_s == 4.0
    assert row.self_s == 4.0
    assert inner.nested and not outer.nested


def test_spans_nest_per_thread():
    import threading

    tr = T.Tracer()
    root = tr.open("bench.timed")
    seen = {}

    def worker():
        span = tr.open("serve.scheduler")
        tr.close(span)
        seen["parent"] = span.parent

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    tr.close(root)
    assert seen["parent"] is None


def test_wrap_patches_and_restores_with_counts():
    class Index:
        def candidates(self, record, k):
            return list(range(k))

    tr = T.Tracer()
    original = Index.candidates
    tr.wrap_object(Index, "candidates", "serve.index.candidates",
                   W._count_found)
    assert Index().candidates(None, 3) == [0, 1, 2]
    tr.remove()
    assert Index.candidates is original
    (span,) = tr.spans
    assert span.name == "serve.index.candidates" and span.count == 3


def test_coverage_reports_the_busiest_thread(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(T.time, "perf_counter", clock)
    tr = T.Tracer()
    root = tr.open("bench.timed")
    clock.now = 1.0
    child = tr.open("serve.index.candidates")
    clock.now = 4.0
    tr.close(child)
    clock.now = 5.0
    tr.close(root)
    assert W.coverage(tr.spans, root, 5.0) == pytest.approx(0.6)


# -- schedules ---------------------------------------------------------
def test_poisson_schedule_is_deterministic_per_seed():
    first = H.poisson_schedule(100.0, 5.0, np.random.default_rng(7))
    again = H.poisson_schedule(100.0, 5.0, np.random.default_rng(7))
    other = H.poisson_schedule(100.0, 5.0, np.random.default_rng(8))
    assert first == again
    assert first != other
    assert all(0.0 < t < 5.0 for t in first)
    assert first == sorted(first)
    assert 400 < len(first) < 600


def test_alternating_schedule_cycles_rates():
    due, tags = H.alternating_schedule((50.0, 200.0), 1.0, 6.0,
                                       np.random.default_rng(3))
    again = H.alternating_schedule((50.0, 200.0), 1.0, 6.0,
                                   np.random.default_rng(3))
    assert (due, tags) == again
    assert due == sorted(due) and all(0.0 <= t < 6.0 for t in due)
    for t, tag in zip(due, tags):
        assert tag == int(t) % 2
    light, heavy = tags.count(0), tags.count(1)
    assert 3 * light < heavy


# -- failure accounting ------------------------------------------------
def test_fail_share_counts_refusals_timeouts_and_gates():
    outcome = H.Outcome()
    outcome.ok(90)
    outcome.fail("Overloaded", 6)
    outcome.fail("Timeout", 2)
    outcome.gate(False, "replay mismatch")
    outcome.gate(True, "replay mismatch")
    assert outcome.attempted == 100
    assert outcome.failed == 9
    assert outcome.share == pytest.approx(0.09)
    assert outcome.reasons == {"Overloaded": 6, "Timeout": 2,
                               "replay mismatch": 1}


def test_fail_share_rejects_impossible_counts():
    assert H.fail_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        H.fail_share(3, 4)


def _phase(offered_rps, completed, duration=1.0, failures=None):
    return H.PhaseResult(name="p", offered_rps=offered_rps,
                         duration=duration,
                         latencies=[0.01] * completed, lateness=[],
                         failures=failures or {},
                         elapsed=duration)


def test_invalid_phase_fails_all_its_work():
    outcome = H.Outcome()
    W.count_phase(outcome, _phase(100.0, 100, failures={"Overloaded": 3}))
    assert (outcome.attempted, outcome.failed) == (103, 3)
    short = H.Outcome()
    W.count_phase(short, _phase(100.0, 80))
    assert (short.attempted, short.failed) == (80, 80)


class _Future:
    def __init__(self, value, error=None):
        self.value, self.error = value, error

    def done(self):
        return True

    def result(self, timeout=None):
        if self.error is not None:
            raise self.error
        return self.value


def test_open_loop_counts_refused_and_failed_requests():
    def submit(i):
        if i == 1:
            raise RuntimeError("refused")
        if i == 2:
            return _Future(None, TimeoutError("late"))
        return _Future(i)

    due = [0.0, 0.001, 0.002, 0.003]
    phase = H.run_open_loop("p", due, 0.01, submit)
    assert phase.completed == 2
    assert phase.failures == {"RuntimeError": 1, "TimeoutError": 1}
    assert phase.attempted == 4
    assert [i for i, _ in phase.results] == [0, 3]
    assert all(latency >= 0 for latency in phase.latencies)


# -- the result line and the benchmark spec ----------------------------
def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(W.PER_LAYER)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(W.WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / HERE.name
    bench.mkdir()
    for name in ("run.py", "workloads.py", "harness.py", "tracer.py"):
        shutil.copy(HERE / name, bench / name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train-row",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
