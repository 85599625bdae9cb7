"""``serve-mixed``: a ``repro serve`` daemon under an open-loop job mix.

One generator (this process, one connection at a time) sends jobs on a
fixed schedule whatever the daemon's state, so a stall queues later
jobs instead of slowing the sender; each job's latency runs from its
*due* time to when its completion is observed.  The rate is a constant
of the workload — about half the capacity measured on a 2-CPU host —
so every commit gets the same offered load.  Successive rounds of the
mix cycle over several small assemblies, so no one input's quirks set
the numbers.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import DarwinWGA, LastzAligner
from repro.service import ServeClient
from repro.service.client import ServeError

from perfbench import pipelines, procs, stats
from perfbench.pipelines import CountingEngine
from perfbench.stats import Outcome

#: The job mix, sent in this order, repeatedly.  Chain jobs never touch
#: the engine, so their latency is service cost alone.  At :data:`RATE`
#: each align job arrives after the one before it has finished, so the
#: median latency is a LASTZ job's own run and the p90 a Darwin job's,
#: not the difference of two waits (which would swing with every
#: change in job cost).
MIX = ("darwin", "chain", "lastz", "chain", "lastz")
#: Offered load in jobs per second: a little over half the capacity
#: measured on a 2-CPU host (the mix's five jobs take about 0.8 s back
#: to back).  A 30-second run sends 100 jobs, the fewest with a
#: reportable p90.
RATE = 3.4
WORKERS = 2
POLL_SECONDS = 0.01
#: A job not done this long after it was due counts as failed.
JOB_TIMEOUT = 30.0
SETUP_REPEATS = 3
#: A daemon that stops answering fails the affected jobs, not the run.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: One job: (kind, assembly index).
Job = Tuple[str, int]


def job_specs(files, maf: Path) -> Dict[str, Dict]:
    """The request body of each job kind over one assembly."""
    target, query = str(files.target), str(files.query)
    return {
        "darwin": {"kind": "align", "target": target, "query": query},
        "lastz": {
            "kind": "align", "target": target, "query": query,
            "aligner": "lastz",
        },
        "chain": {"kind": "chain", "maf": str(maf), "target": target,
                  "query": query},
    }


def schedule(seconds: float, assemblies: int) -> List[Job]:
    """The jobs to send, one per ``1 / RATE`` seconds: whole rounds of
    :data:`MIX` filling ``seconds``, round ``r`` on assembly
    ``r % assemblies``."""
    rounds = max(1, int(seconds * RATE) // len(MIX))
    return [(kind, r % assemblies) for r in range(rounds) for kind in MIX]


class Daemon:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, root: Path, state_dir: Path) -> None:
        port_file = state_dir / "port"
        state_dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = open(state_dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                str(state_dir / "state"), "--workers", str(WORKERS),
                "--port", "0", "--port-file", str(port_file),
            ],
            cwd=root,
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.peak_rss_mb: Optional[float] = None
        try:
            self.client = self._await_ready(port_file)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, port_file: Path) -> ServeClient:
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start")
            time.sleep(0.005)
        client = ServeClient(port=int(port_file.read_text()))
        while True:
            try:
                client.healthz()
                return client
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> float:
        """Stop the daemon and its workers (once); returns the daemon
        process's own peak RSS in MB, read just before it is stopped.

        Like the wga workloads' figure, this leaves out pool workers:
        their peaks swung by up to 25% between runs of one input with
        which jobs each worker happened to run.
        """
        if self.peak_rss_mb is not None:
            return self.peak_rss_mb
        pid = self.proc.pid
        self.peak_rss_mb = _peak_rss_mb(pid)
        os.kill(pid, signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(pid, signal.SIGKILL)
            self.proc.wait()
        _kill_group(pid)
        self.log.close()
        return self.peak_rss_mb


def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MB; 0 when it
    has already exited."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _kill_group(pgid: int) -> None:
    """Ensure no process of the group outlives the benchmark."""
    deadline = time.monotonic() + 10
    while True:
        procs.reap_group(pgid)
        try:
            os.killpg(pgid, signal.SIGKILL if time.monotonic() > deadline
                      else 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


@dataclass
class OpenLoop:
    """Everything one open-loop run observed."""

    latencies: List[float] = field(default_factory=list)
    submit_seconds: List[float] = field(default_factory=list)
    run_seconds: List[float] = field(default_factory=list)
    #: Assembly index -> daemon-side run seconds of its Darwin jobs.
    darwin_runs: Dict[int, List[float]] = field(default_factory=dict)
    lag_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    shed: int = 0
    queue_wait_s: float = 0.0

    def fail(self) -> None:
        """Count a failed or refused job; it missed any latency limit,
        so it enters the percentiles at the timeout."""
        self.failed += 1
        self.latencies.append(JOB_TIMEOUT)

    def darwin_w2_s(self) -> float:
        """The daemon's Darwin job time (workers=2) summed over the
        assemblies, each assembly's the mean of its completed jobs: on
        the scale of the reference's serial ``darwin_s``."""
        return sum(sum(runs) / len(runs) for runs in self.darwin_runs.values())


_HISTOGRAMS = ("serve_job_latency_seconds", "serve_job_run_seconds")


def _histogram_totals(client) -> List[Tuple[float, int]]:
    metrics = client.status()["metrics"]
    return [(metrics[name]["sum"], metrics[name]["count"])
            for name in _HISTOGRAMS]


def open_loop(client, jobs: List[Job], specs: List[Dict],
              expected: List[Dict[str, str]]) -> OpenLoop:
    """Send ``jobs`` at :data:`RATE`; check every output digest."""
    seen = OpenLoop()
    before = _histogram_totals(client)
    start = time.perf_counter()
    due = [start + i / RATE for i in range(len(jobs))]
    outstanding: List[Tuple[int, str]] = []  # (job index, id), FIFO
    sent = 0
    while sent < len(jobs) or outstanding:
        now = time.perf_counter()
        if sent < len(jobs) and now >= due[sent]:
            kind, assembly = jobs[sent]
            seen.attempted += 1
            seen.lag_seconds.append(now - due[sent])
            try:
                reply = client.submit(dict(specs[assembly][kind]))
            except ServeError as error:
                seen.fail()
                seen.shed += error.status == 429
            except TRANSPORT_ERRORS:
                seen.fail()
            else:
                outstanding.append((sent, reply["id"]))
            seen.submit_seconds.append(time.perf_counter() - now)
            sent += 1
            continue
        if outstanding:
            index, job_id = outstanding[0]
            try:
                record = client.job(job_id)
            except (ServeError,) + TRANSPORT_ERRORS:
                record = {"state": "unknown"}
            observed = time.perf_counter()
            if record["state"] in ("done", "failed", "expired", "cancelled"):
                outstanding.pop(0)
                kind, assembly = jobs[index]
                summary = record.get("summary", {})
                if (record["state"] != "done" or summary.get("output_sha256")
                        != expected[assembly][kind]):
                    seen.fail()
                else:
                    seen.latencies.append(observed - due[index])
                    seen.run_seconds.append(summary["run_seconds"])
                    if kind == "darwin":
                        seen.darwin_runs.setdefault(assembly, []).append(
                            summary["run_seconds"]
                        )
                continue
            if observed - due[index] > JOB_TIMEOUT:
                outstanding.pop(0)
                seen.fail()
                continue
        wake = time.perf_counter() + POLL_SECONDS
        if sent < len(jobs):
            wake = min(wake, due[sent])
        time.sleep(max(0.0, wake - time.perf_counter()))
    after = _histogram_totals(client)
    (latency_sum, count), (run_sum, _) = [
        (b[0] - a[0], b[1] - a[1]) for a, b in zip(before, after)
    ]
    # Admission-to-done minus run time, on the daemon's own clock.
    seen.queue_wait_s = (latency_sum - run_sum) / count if count else 0.0
    return seen


def measure(root: Path, workdir: Path, specs: List[Dict], seconds: float,
            expected: List[Dict[str, str]]):
    """Set up the daemon (median of several launches), then run the
    open loop; returns (setup seconds, OpenLoop, daemon peak RSS MB)."""
    setups: List[float] = []
    daemon: Optional[Daemon] = None
    warm = OpenLoop()
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            start = time.perf_counter()
            daemon = Daemon(root, workdir / f"serve-{attempt}")
            for kind in ("darwin", "lastz", "chain"):
                record = daemon.client.wait(
                    daemon.client.submit(dict(specs[0][kind]))["id"],
                    timeout=JOB_TIMEOUT, poll=POLL_SECONDS,
                )
                warm.attempted += 1
                warm.failed += (record["summary"].get("output_sha256")
                                != expected[0][kind])
            setups.append(time.perf_counter() - start)
        seen = open_loop(daemon.client, schedule(seconds, len(specs)),
                         specs, expected)
    finally:
        peak = daemon.stop() if daemon is not None else 0.0
    seen.attempted += warm.attempted
    seen.failed += warm.failed
    return setups, seen, peak


@dataclass
class Reference:
    """What :func:`reference` measured and recorded."""

    times: Dict[str, float]
    #: Per assembly: the digest each job kind must produce, and the
    #: Darwin MAF the chain job reads.
    expected: List[Dict]
    #: ``last_stream`` of every workers=2 call.
    summaries: List[Dict]
    dispatched: int
    pool_start_s: float


def reference(assemblies, workdir: Path, outcome: Outcome, pinned,
              engine_class=None) -> Reference:
    """Run serial Darwin and LASTZ in-process over every assembly, after
    a warm-up: the outputs the daemon's must match, and one reading of
    the workload's ``darwin_s`` and ``lastz_s`` (each summed over the
    assemblies).

    With ``engine_class``, Darwin also runs at workers=2 on a pool of
    that class, for the engine's per-layer metrics.  The end-to-end
    ``darwin_w2_s`` is the daemon's own (:meth:`OpenLoop.darwin_w2_s`),
    read over the whole open loop rather than in one short window.
    """
    times = {"darwin_s": 0.0, "lastz_s": 0.0}
    expected: List[Dict] = []
    summaries: List[Dict] = []
    calls = [("darwin_s", DarwinWGA, "darwin"),
             ("lastz_s", LastzAligner, "lastz")]
    engine, pool_start_s, dispatched = None, 0.0, 0
    if engine_class is not None:
        start = time.perf_counter()
        engine = pipelines.start_engine(engine_class=engine_class)
        pool_start_s = time.perf_counter() - start
        calls.append(("darwin_w2_s", lambda: DarwinWGA(engine=engine),
                      "darwin"))
    try:
        pipelines.warm_up(engine)
        warm_dispatched = getattr(engine, "dispatched_extensions", 0)
        for index, files in enumerate(assemblies):
            targets, queries = pipelines.load(files)
            loaded = (targets, queries, pipelines.build_indexes(targets))
            found: Dict[str, Dict[str, str]] = {"darwin": {}, "lastz": {}}
            for metric, make_aligner, name in calls:
                began = time.perf_counter()
                alignments, _ = pipelines.align_units(
                    make_aligner(), *loaded, streams=summaries
                )
                if metric in times:
                    times[metric] += time.perf_counter() - began
                text = pipelines.maf_text(alignments, targets, queries)
                found[name][metric] = pipelines.digest(text)
                if metric == "darwin_s":
                    maf = workdir / f"{files.name}.darwin.maf"
                    maf.write_text(text)
            for name, digests in found.items():
                outcome.check(digests, pinned(index, name))
            chain = pipelines.digest(
                pipelines.chain_job_text(maf, targets, queries)
            )
            outcome.check({"chain": chain}, pinned(index, "chain"))
            expected.append({
                "darwin": found["darwin"]["darwin_s"],
                "lastz": found["lastz"]["lastz_s"],
                "chain": chain,
                "maf": maf,
            })
        dispatched = (
            getattr(engine, "dispatched_extensions", 0) - warm_dispatched
        )
    finally:
        if engine is not None:
            engine.close()
    return Reference(
        times=times,
        expected=expected,
        # Serial calls report no stream summary.
        summaries=[s for s in summaries if s is not None],
        dispatched=dispatched,
        pool_start_s=pool_start_s,
    )


def run(root: Path, workdir: Path, assemblies, seconds: float,
        trace: bool, pinned) -> Outcome:
    outcome = Outcome()
    measured = reference(assemblies, workdir, outcome, pinned,
                         engine_class=CountingEngine if trace else None)
    expected = measured.expected
    specs = [job_specs(files, digests["maf"])
             for files, digests in zip(assemblies, expected)]
    setups, seen, peak = measure(root, workdir, specs, seconds, expected)
    # The host's speed drifts over tens of seconds, so the serial
    # reference is read once before the open loop and once after it,
    # and the metrics are the mean of the two readings.
    again = reference(assemblies, workdir, outcome,
                      lambda index, name: expected[index][name])
    outcome.attempted += seen.attempted
    outcome.failed += seen.failed
    outcome.notes.append(
        f"{len(seen.run_seconds)} jobs completed of {len(seen.lag_seconds)} "
        f"sent (open loop at {RATE:g}/s, mix {'/'.join(MIX)}, "
        f"{len(assemblies)} assemblies)"
    )
    if not trace:
        outcome.metrics = {
            "setup_s": stats.median(setups),
            "darwin_s": (measured.times["darwin_s"]
                         + again.times["darwin_s"]) / 2,
            "lastz_s": (measured.times["lastz_s"]
                        + again.times["lastz_s"]) / 2,
            "darwin_w2_s": seen.darwin_w2_s(),
            "job_latency_p50_s": stats.median(seen.latencies),
            "job_latency_p90_s": stats.tail(seen.latencies),
            "peak_rss_mb": peak,
        }
        return outcome
    passed = pipelines.trace_pass(assemblies)
    for index, digests in enumerate(expected):
        for name in pipelines.ALIGNERS:
            outcome.check(
                {"untraced": passed.untraced[name][index],
                 "traced": passed.traced[name][index]},
                digests[name],
            )
    outcome.metrics = pipelines.layer_metrics(passed)
    outcome.metrics.update(pipelines.quality_metrics("serve-mixed", passed))
    outcome.metrics.update(
        pipelines.parallel_metrics(
            measured.pool_start_s, measured.dispatched, passed.counts,
            measured.summaries,
        )
    )
    outcome.metrics.update(
        {
            "service.submit_s": stats.median(seen.submit_seconds),
            "service.queue_wait_s": seen.queue_wait_s,
            "service.run_s": stats.median(seen.run_seconds or [0.0]),
            "service.shed": seen.shed,
            "service.generator_lag_s": max(seen.lag_seconds),
        }
    )
    return outcome
