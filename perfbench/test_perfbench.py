"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import pipelines, serve, stats
from perfbench.stats import LayerClock, Outcome
from repro.service.client import ServeError


class TestTailPercentile:
    def test_p90_needs_ten_samples_beyond_it(self):
        assert stats.percentile(list(range(99)), 90) is None
        assert stats.percentile(list(range(100)), 90) == 89

    def test_tail_is_the_p90_when_reportable(self):
        samples = [float(i) for i in range(200)]
        assert stats.tail(samples) == 179.0

    def test_tail_falls_back_to_the_highest_rank_with_ten_beyond(self):
        samples = [float(i) for i in range(50)]
        # p90 would be rank 45 with 5 beyond; rank 40 has 10 beyond.
        assert stats.tail(samples) == 39.0

    def test_few_samples_report_the_median(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert stats.tail(samples) == 3.0


class TestRemainder:
    def test_layers_plus_remainder_equal_the_wall_time(self):
        layers = {"seed": 0.25, "filter": 1.5, "extend": 3.125}
        rest = stats.remainder(5.0, layers)
        assert rest == 0.125
        assert math.fsum(layers.values()) + rest == 5.0

    def test_clock_spans_leave_a_nonnegative_remainder(self):
        clock = LayerClock()
        start = time.perf_counter()
        for layer in ("a", "b", "a"):
            with clock(layer):
                time.sleep(0.01)
        time.sleep(0.01)  # unattributed work between spans
        wall = time.perf_counter() - start
        rest = stats.remainder(wall, clock.seconds)
        assert clock.calls == {"a": 2, "b": 1}
        assert rest >= 0.01
        assert math.isclose(math.fsum(clock.seconds.values()) + rest, wall)


class TestFailureCounting:
    def test_a_perturbed_output_is_one_failure(self):
        outcome = Outcome()
        outcome.check({"serial": "x", "workers=2": "y", "traced": "x"}, None)
        assert (outcome.attempted, outcome.failed) == (3, 1)

    def test_outputs_are_checked_against_the_pinned_digest(self):
        outcome = Outcome()
        outcome.check({"serial": "x", "traced": "x"}, "pinned")
        outcome.check({"serial": "pinned"}, "pinned")
        assert (outcome.attempted, outcome.failed) == (3, 2)


class FakeDaemon:
    """A stand-in for ``ServeClient``: every job is done when polled."""

    def __init__(self, stall=0.0, digests=None, shed=(), run_seconds=()):
        self.stall, self.shed = stall, set(shed)
        self.digests = digests or {}
        self.run_seconds = list(run_seconds)
        self.submitted = []

    def status(self):
        done = len(self.submitted)
        histogram = {"sum": 0.0, "count": done}
        return {"metrics": {"serve_job_latency_seconds": histogram,
                            "serve_job_run_seconds": histogram}}

    def submit(self, spec):
        number = len(self.submitted)
        if number == 0:
            time.sleep(self.stall)
        if number in self.shed:
            self.submitted.append(None)
            raise ServeError(429, {"error": "full"})
        self.submitted.append(spec)
        return {"id": str(number)}

    def job(self, job_id):
        number = int(job_id)
        digest = self.digests.get(number, "ok")
        run = (self.run_seconds[number] if number < len(self.run_seconds)
               else 0.001)
        return {"state": "done",
                "summary": {"output_sha256": digest, "run_seconds": run}}


SPECS = [{"chain": {"kind": "chain"}}]
EXPECTED = [{"chain": "ok"}]
CHAINS = [("chain", 0)] * 4


class TestOpenLoop:
    def test_latency_runs_from_the_due_time(self):
        # The first submit stalls 2.5 send intervals: the next two jobs
        # go out late, and their latency includes that wait although the
        # daemon finished them at once.
        interval = 1 / serve.RATE
        seen = serve.open_loop(FakeDaemon(stall=2.5 * interval),
                               CHAINS[:3], SPECS, EXPECTED)
        assert seen.failed == 0
        assert seen.lag_seconds[1] >= 1.5 * interval
        assert seen.latencies[1] >= 1.5 * interval
        assert seen.latencies[2] >= 0.5 * interval

    def test_wrong_output_and_refusal_count_as_failures(self):
        seen = serve.open_loop(
            FakeDaemon(digests={1: "perturbed"}, shed={2}), CHAINS,
            SPECS, EXPECTED,
        )
        assert (seen.attempted, seen.failed, seen.shed) == (4, 2, 1)
        assert sorted(seen.latencies)[2:] == [serve.JOB_TIMEOUT] * 2

    def test_darwin_w2_sums_each_assemblys_mean_daemon_run(self):
        specs = [{"darwin": {"kind": "align"}}] * 2
        expected = [{"darwin": "ok"}] * 2
        jobs = [("darwin", 0), ("darwin", 1), ("darwin", 0)]
        seen = serve.open_loop(FakeDaemon(run_seconds=[1.0, 10.0, 3.0]),
                               jobs, specs, expected)
        assert seen.darwin_w2_s() == (1.0 + 3.0) / 2 + 10.0


@pytest.mark.parametrize("seconds", [1.0, 7.3])
def test_schedule_sends_whole_rounds_cycling_over_assemblies(seconds):
    jobs = serve.schedule(seconds, assemblies=2)
    rounds = [jobs[i:i + len(serve.MIX)]
              for i in range(0, len(jobs), len(serve.MIX))]
    assert len(jobs) <= max(len(serve.MIX), seconds * serve.RATE)
    for number, round_jobs in enumerate(rounds):
        assert round_jobs == [(kind, number % 2) for kind in serve.MIX]


class TestQualityCounts:
    MATCHED = {"darwin": [40, 30, 20, 10], "lastz": [4, 3, 2, 1]}

    def run(self):
        return pipelines.TracePass(matched=self.MATCHED)

    def test_four_pairs_reports_matched_bp_per_pair(self):
        metrics = pipelines.quality_metrics("four-pairs", self.run())
        assert metrics["quality.darwin_bp.dm6-droSim1"] == 40
        assert metrics["quality.lastz_bp.ce11-cb4"] == 1
        assert metrics["quality.darwin_false_positive_bp"] == 0

    def test_null_shuffled_counts_every_matched_base_as_false(self):
        run = pipelines.TracePass(matched={"darwin": [7], "lastz": [0]})
        metrics = pipelines.quality_metrics("null-shuffled", run)
        assert metrics["quality.darwin_false_positive_bp"] == 7
        assert metrics["quality.lastz_false_positive_bp"] == 0
        assert metrics["quality.darwin_bp.ce11-cb4"] == 0

    def test_other_workloads_report_zero(self):
        metrics = pipelines.quality_metrics("serve-mixed", self.run())
        assert set(metrics.values()) == {0}


ORPHANS = """
import os, subprocess
from multiprocessing import resource_tracker, shared_memory
from perfbench import procs

assert procs.adopt_orphans()
block = shared_memory.SharedMemory(create=True, size=16)
block.close()
block.unlink()
tracker = resource_tracker._resource_tracker._pid
# A child that exits at once, leaving a grandchild running.
orphan = int(subprocess.run(["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
                            capture_output=True, text=True).stdout)
procs.stop_all(timeout=0.5)
left = [p.pid for p in procs.processes() if p.ppid == os.getpid()]
print(left, os.path.exists(f"/proc/{tracker}"), os.path.exists(f"/proc/{orphan}"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_no_process_outlives_the_run():
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", ORPHANS], cwd=root,
                            env=dict(os.environ, PYTHONPATH=str(root)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "False", "False"]
