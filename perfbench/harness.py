"""Measurement helpers shared by every workload of the repository benchmark.

Nothing here imports ``repro``: the helpers are plain statistics, an
open-loop load generator, a host-speed reference, process accounting and
the environment fingerprint, so their tests run without the package on the
path.
"""

from __future__ import annotations

import hashlib
import os
import platform
import queue
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

#: an open-loop phase is valid only when it completed at least this share
#: of its offered rate; below it the queue grew and its latencies describe
#: a backlog, not the system at that rate
ACHIEVED_FLOOR = 0.95


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``beyond`` samples above it."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Optional[Tail]:
    """Tail statistic of ``samples``; ``None`` below ``beyond + 1`` samples.

    The value is the ``beyond + 1``-th largest sample. Exactly ``beyond``
    samples sit above it by rank, and it is the ``100 * (n - beyond) / n``
    percentile of the ``n`` samples.
    """
    n = len(samples)
    if n < beyond + 1:
        return None
    ordered = sorted(samples)
    rank = n - 1 - beyond
    return Tail(value=float(ordered[rank]),
                percentile=100.0 * (rank + 1) / n, samples=n, beyond=beyond)


#: samples per chunk of the end-to-end tail; a chunk's tail is its p90
TAIL_CHUNK = 100


@dataclass(frozen=True)
class ChunkedTail:
    """Median over consecutive chunks of each chunk's :func:`tail`."""

    value: float
    percentile: float       # of each chunk
    chunk: int              # samples per chunk
    chunks: int
    samples: int


def chunked_tail(samples: Sequence[float],
                 chunk: int = TAIL_CHUNK) -> Optional[ChunkedTail]:
    """Tail that one slow spell cannot carry alone.

    Time-ordered ``samples`` are cut into consecutive chunks of ``chunk``;
    each chunk's tail follows :func:`tail` (the highest percentile with
    ten samples beyond it, p90 at 100 samples), and the median over the
    chunks is reported. Fewer samples than one chunk: the plain tail.
    """
    count = len(samples) // chunk
    if count == 0:
        found = tail(samples)
        if found is None:
            return None
        return ChunkedTail(found.value, found.percentile, len(samples), 1,
                           len(samples))
    tails = [tail(samples[i * chunk:(i + 1) * chunk]) for i in range(count)]
    return ChunkedTail(value=median([t.value for t in tails]),
                       percentile=tails[0].percentile, chunk=chunk,
                       chunks=count, samples=len(samples))


def window_rates(times: Sequence[float], units: Sequence[float],
                 window: float = 1.0) -> List[float]:
    """Work per second in each whole ``window`` after the first event.

    ``times`` are completion times (sorted) and ``units`` the work each
    completion carried. The work finished at the first instant was queued
    before the clock started and is left out.
    """
    if len(times) < 2:
        return []
    start = times[0]
    count = int((times[-1] - start) // window)
    rates = [0.0] * count
    for t, u in zip(times, units):
        slot = int((t - start) // window)
        if t > start and slot < count:
            rates[slot] += u
    return [r / window for r in rates]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


class HostReference:
    """A fixed unit of plain-Python work whose time tracks host contention.

    One word set's top-10 overlap against 3000 others, all drawn from a
    fixed seed. On the shared test host, contention from neighbours slows
    the candidate indexes by up to 60% within seconds; over 2-s windows
    this work's time followed the indexes' at a correlation of 0.99. It
    runs no ``repro`` code, so a change to the program moves it only
    through the caches they share.
    """

    #: about its median time on the 2-vCPU test VM (see README,
    #: *End-to-end metrics*)
    nominal_s = 0.005

    def __init__(self) -> None:
        rnd = random.Random(0)
        self.sets = [frozenset(f"w{rnd.randrange(5000)}" for _ in range(20))
                     for _ in range(3000)]

    def seconds(self) -> float:
        """Time one unit of the work."""
        query = self.sets[0]
        t0 = time.perf_counter()
        sorted(((len(query & other), i) for i, other in enumerate(self.sets)),
               reverse=True)[:10]
        return time.perf_counter() - t0


def at_reference_speed(segments: Sequence[Tuple[float, float, float]]
                       ) -> Tuple[float, float]:
    """Wall and CPU seconds of ``(wall, cpu, reference)`` segments, each
    scaled by ``HostReference.nominal_s`` over the reference's time taken
    right after it: what the segments would have taken at the host speed
    at which the reference takes its nominal time."""
    wall = cpu = 0.0
    for seg_wall, seg_cpu, reference in segments:
        factor = HostReference.nominal_s / reference
        wall += seg_wall * factor
        cpu += seg_cpu * factor
    return wall, cpu


def fail_share(attempted: int, failed: int) -> float:
    """Failed over attempted operations (0 when nothing was attempted)."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"bad counts: attempted={attempted} failed={failed}")
    return failed / attempted if attempted else 0.0


@dataclass
class Outcome:
    """Attempted and failed operation counts of one workload run.

    Every refused request, timeout and correctness-gate miss is one failed
    operation; a gate that checks a whole run counts as one operation.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def gate(self, passed: bool, reason: str) -> None:
        """Count one correctness check as an operation."""
        if passed:
            self.ok()
        else:
            self.fail(reason)

    @property
    def share(self) -> float:
        return fail_share(self.attempted, self.failed)


# ----------------------------------------------------------------------
# Open-loop load generation
# ----------------------------------------------------------------------
def poisson_schedule(rate: float, duration: float, rng) -> List[float]:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration)``.

    ``rng`` is a ``numpy.random.Generator``; the same seed yields the same
    schedule.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    due: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return due
        due.append(t)


def alternating_schedule(rates: Sequence[float], block_s: float,
                         duration: float, rng) -> tuple:
    """Poisson arrivals whose rate cycles through ``rates`` every block.

    Returns ``(due, tags)``: arrival offsets in ``[0, duration)`` and, for
    each, the index of the rate it was drawn at. Alternating short blocks
    spreads every rate over the whole phase, so a slow spell of the
    machine touches each rate alike.
    """
    due: List[float] = []
    tags: List[int] = []
    blocks = max(int(round(duration / block_s)), len(rates))
    length = duration / blocks
    for b in range(blocks):
        tag = b % len(rates)
        for offset in poisson_schedule(rates[tag], length, rng):
            due.append(b * length + offset)
            tags.append(tag)
    return due, tags


@dataclass
class PhaseResult:
    """What one open-loop phase measured (times in seconds)."""

    name: str
    offered_rps: float
    duration: float
    latencies: List[float]
    lateness: List[float]
    failures: Dict[str, int]
    elapsed: float              # first due time to last completion
    completions: List[float] = field(default_factory=list)
    results: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def attempted(self) -> int:
        return self.completed + sum(self.failures.values())

    @property
    def achieved_rps(self) -> float:
        return self.completed / max(self.elapsed, self.duration)

    @property
    def valid(self) -> bool:
        return self.achieved_rps >= ACHIEVED_FLOOR * self.offered_rps


class _Collector(threading.Thread):
    """Records each completion when it happens, not after the last submit.

    Waiting for results only once every request has been sent dates every
    completion to the end of the phase. This thread blocks on the oldest
    outstanding future and, whenever it wakes, stamps every future that
    has resolved; with ``poll_s`` as the longest wait, a request that
    finishes before an older one is stamped at most that late.
    """

    def __init__(self, poll_s: float = 0.002) -> None:
        super().__init__(name="perfbench-collector", daemon=True)
        self.inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self.poll_s = poll_s
        self.done: List[tuple] = []      # (index, t_done, result or error)
        self.unresolved = 0
        self.halt = threading.Event()

    def run(self) -> None:
        outstanding: list = []
        closed = False
        while True:
            if not outstanding and not closed:
                item = self.inbox.get()
                if item is None:
                    closed = True
                else:
                    outstanding.append(item)
            while True:
                try:
                    item = self.inbox.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    closed = True
                else:
                    outstanding.append(item)
            if outstanding:
                try:
                    outstanding[0][1].result(self.poll_s)
                except Exception:  # noqa: BLE001 - read below, per request
                    pass
            now = time.perf_counter()
            still = []
            for index, pending in outstanding:
                if pending.done():
                    try:
                        outcome = pending.result(0)
                    except Exception as error:  # noqa: BLE001 - recorded
                        outcome = error
                    self.done.append((index, now, outcome))
                else:
                    still.append((index, pending))
            outstanding = still
            if closed and not outstanding:
                return
            if self.halt.is_set():
                self.unresolved = len(outstanding)
                return


def run_open_loop(name: str, due: Sequence[float], duration: float,
                  submit: Callable[[int], object],
                  timeout: float = 20.0) -> PhaseResult:
    """Send request ``i`` at ``due[i]`` seconds, whatever came back.

    ``submit(i)`` returns a future with ``done()`` and ``result(timeout)``;
    an exception from ``submit`` is a refused request. Latency runs from
    the due time, so a stall also charges the requests queued behind it.
    Requests not resolved ``timeout`` seconds after the last due time fail.
    """
    collector = _Collector()
    collector.start()
    failures: Dict[str, int] = {}
    lateness: List[float] = []
    starts: Dict[int, float] = {}
    t0 = time.perf_counter()
    try:
        for i, offset in enumerate(due):
            at = t0 + offset
            delay = at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(time.perf_counter() - at, 0.0))
            starts[i] = at
            try:
                pending = submit(i)
            except Exception as error:  # noqa: BLE001 - counted as refused
                key = type(error).__name__
                failures[key] = failures.get(key, 0) + 1
                continue
            collector.inbox.put((i, pending))
    finally:
        collector.inbox.put(None)
    collector.join(timeout + max(duration - (time.perf_counter() - t0), 0.0))
    collector.halt.set()
    collector.join()
    if collector.unresolved:
        failures["Timeout"] = collector.unresolved
    latencies: List[float] = []
    completions: List[float] = []
    results = []
    last = t0
    for index, t_done, outcome in sorted(collector.done):
        if isinstance(outcome, Exception):
            key = type(outcome).__name__
            failures[key] = failures.get(key, 0) + 1
            continue
        latencies.append(t_done - starts[index])
        completions.append(t_done - t0)
        results.append((index, outcome))
        last = max(last, t_done)
    offered = len(due) / duration
    return PhaseResult(name=name, offered_rps=offered, duration=duration,
                       latencies=latencies, lateness=lateness,
                       failures=failures, elapsed=last - t0,
                       completions=completions, results=results)


def run_saturation(name: str, duration: float, window: int,
                   submit: Callable[[int], object],
                   timeout: float = 20.0) -> PhaseResult:
    """Keep ``window`` requests outstanding for ``duration`` seconds.

    The queue never runs dry, so the completions (see :func:`window_rates`)
    show the throughput the system sustains when it is never idle.
    """
    failures: Dict[str, int] = {}
    outstanding: list = []
    latencies: List[float] = []
    completions: List[float] = []
    results = []
    sent = 0
    t0 = time.perf_counter()
    deadline = t0 + duration
    while True:
        now = time.perf_counter()
        while now < deadline and len(outstanding) < window:
            try:
                outstanding.append((sent, now, submit(sent)))
            except Exception as error:  # noqa: BLE001 - counted as refused
                key = type(error).__name__
                failures[key] = failures.get(key, 0) + 1
            sent += 1
            now = time.perf_counter()
        if not outstanding:
            break
        try:
            outstanding[0][2].result(timeout)
        except Exception:  # noqa: BLE001 - read below, per request
            pass
        if not outstanding[0][2].done():
            failures["Timeout"] = failures.get("Timeout", 0) + \
                len(outstanding)
            break
        now = time.perf_counter()
        still = []
        for index, started, pending in outstanding:
            if not pending.done():
                still.append((index, started, pending))
                continue
            try:
                outcome = pending.result(0)
            except Exception as error:  # noqa: BLE001 - counted as failed
                key = type(error).__name__
                failures[key] = failures.get(key, 0) + 1
                continue
            latencies.append(now - started)
            completions.append(now - t0)
            results.append((index, outcome))
        outstanding = still
    elapsed = completions[-1] - completions[0] if completions else 0.0
    return PhaseResult(name=name, offered_rps=0.0, duration=duration,
                       latencies=latencies, lateness=[], failures=failures,
                       elapsed=elapsed, completions=completions,
                       results=results)


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def descendants(root: int) -> List[int]:
    """Live descendant pids of ``root`` (read from ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def _proc_cpu(pid: int) -> float:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def tree_cpu_seconds() -> float:
    """CPU time of this process plus every live descendant."""
    own = time.process_time()
    return own + sum(_proc_cpu(pid) for pid in descendants(os.getpid()))


def _proc_hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_rss_peak_mb() -> float:
    """Peak resident memory of this process plus its live descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_hwm_mb(pid) for pid in descendants(os.getpid()))


def cpu_ticks() -> List[int]:
    """Machine-wide CPU tick counters (the ``cpu`` line of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: Sequence[int], after: Sequence[int]) -> Optional[float]:
    """Share of all CPU ticks the hypervisor stole between two readings.

    On a virtual machine whose host is busy, stolen time slows every
    measurement; the record keeps it so noisy runs can be recognised.
    """
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def source_digest(root: Path) -> str:
    """sha1 over every ``*.py`` file under ``root`` (path and content)."""
    digest = hashlib.sha1()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(repo: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=repo, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_info() -> dict:
    """BLAS library name and version as numpy reports them."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 - older numpy: report what we can
        return {"name": "unknown", "version": "unknown"}


def fingerprint(repo: Path, workload: str, seed: int) -> dict:
    """Where and on what a record was measured."""
    import numpy as np

    # only a repository rooted at the checkout says which commit this is
    top = _git(repo, "rev-parse", "--show-toplevel")
    own = top is not None and Path(top).resolve() == repo.resolve()
    commit = _git(repo, "rev-parse", "HEAD") if own else None
    status = _git(repo, "status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": bool(status) if commit else None,
        "source_sha1": source_digest(repo / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "executable": sys.executable,
        "workload": workload,
        "seed": seed,
    }
