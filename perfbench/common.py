"""Shared helpers: sample summaries, timing, scratch space and the result
line every workload prints."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Scratch files (saved stores, span dumps) live here, inside the checkout.
SCRATCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".perfbench_tmp",
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: List[float], fraction: float) -> int:
    """How many samples lie strictly above the ``fraction`` percentile."""
    cut = percentile(samples, fraction)
    return sum(1 for value in samples if value > cut)


def stratified_requirements(rng, count: int, pool: int) -> list:
    """``count`` corpus requirements of the same shape for every seed.

    Past the three demo requirements, ``requirement_corpus`` repeats
    six requirement classes that differ only in their ids.  The seed
    picks which members of each class join (from the first ``pool``)
    and shuffles each block of one requirement per class, so seeds vary
    the inputs without varying the work.
    """
    from benchmarks._workloads import requirement_corpus

    corpus = requirement_corpus(pool)
    members: Dict[int, list] = {}
    for index, requirement in enumerate(corpus[3:]):
        members.setdefault(index % 6, []).append(requirement)
    wanted: Dict[int, int] = {}
    for index in range(count - 3):
        wanted[index % 6] = wanted.get(index % 6, 0) + 1
    picked = {
        cls: rng.sample(members[cls], number) for cls, number in wanted.items()
    }
    chosen = corpus[:3]
    for block in range(max(wanted.values())):
        row = [
            picked[cls][block] for cls in sorted(picked)
            if block < len(picked[cls])
        ]
        rng.shuffle(row)
        chosen += row
    return chosen


def report_latencies(result, clock, metrics) -> None:
    """Put the workload's latency metrics on ``result`` and print each
    under its own name with its sample count (and, for a tail, how many
    samples lie beyond it)."""
    for metric, (name, samples, fraction) in metrics.items():
        value = clock.ms(samples, fraction)
        result.metric(metric, value, "ms")
        count = f"n={clock.count(samples)}"
        if fraction > 0.5:
            count += f", {beyond(clock.samples[samples], fraction)} beyond"
        result.say(f"  {name:<32} {value:10.2f} ms  ({count})")


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Named latency samples, in seconds."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    @contextmanager
    def time(self, name: str):
        started = time.perf_counter()
        yield
        self.add(name, time.perf_counter() - started)

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def ms(self, name: str, fraction: float = 0.5) -> float:
        return percentile(self.samples[name], fraction) * 1000.0

    def count(self, name: str) -> int:
        return len(self.samples.get(name, ()))


def median_setup(setup):
    """Run ``setup()`` SETUP_REPEATS times; (median seconds, last result)."""
    seconds = []
    result = None
    for __ in range(SETUP_REPEATS):
        result = None  # let the previous set-up's objects go first
        started = time.perf_counter()
        result = setup()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def spans_path(name: str) -> str:
    """Where a traced run writes its spans (kept after the run)."""
    os.makedirs(SCRATCH, exist_ok=True)
    return os.path.join(SCRATCH, f"spans-{name}.jsonl")


@contextmanager
def scratch_dir(name: str):
    """A private scratch directory under :data:`SCRATCH`, removed after."""
    path = os.path.join(SCRATCH, f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it


class Result:
    """What one workload run reports."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.metrics: Dict[str, tuple] = {}  # name -> (value, unit)
        self.lines: List[str] = []  # the human-readable report

    def check(self, ok: bool, message: str) -> bool:
        """Record one correctness check; a failure also fails its op."""
        if not ok:
            self.mismatches.append(message)
            self.failed += 1
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def say(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, only: Optional[List[str]] = None) -> int:
        """Print the report and the result line; the exit code."""
        for line in self.lines:
            print(line)
        for message in self.mismatches[:20]:
            print(f"MISMATCH {self.workload}: {message}")
        names = only if only is not None else list(self.metrics)
        payload = {
            "correct": not self.mismatches,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {
                    "value": self.metrics[name][0],
                    "unit": self.metrics[name][1],
                }
                for name in names
            },
        }
        print(json.dumps(payload), flush=True)
        return 0 if not self.mismatches else 1
