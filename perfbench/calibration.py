"""Reference seconds: times corrected for how fast the machine runs right now.

On a shared host the speed of the same Python code changes by up to 2x,
often within seconds, while the code under test stays the same.  The
benchmark therefore times a fixed pure-Python loop in its own process,
between segments of work (a slice of operations, a set-up sample, a traced
round), and reports each segment in reference seconds:

    reference seconds = measured seconds * REF_SECONDS / loop seconds nearby

where "loop seconds nearby" is the median of the WINDOW loop samples on
each side of the segment.  With WINDOW = 1 that is the mean of the two
samples that bracket it: on a 2-vCPU host wider windows followed the speed
worse, and a loop run at the same time in another process did not follow it
at all.  REF_SECONDS is about the loop's duration on the machine of the
first trajectory entry, so there reference seconds read as wall seconds.  A
change to epgc moves the measured seconds and not the loop, so it shows in
full.  Reports keep the measured seconds as well.
"""

from __future__ import annotations

import statistics
import time

REF_SECONDS = 0.04
REF_ITERATIONS = 100_000
WINDOW = 1


def reference_loop() -> float:
    """Seconds for a fixed loop of dict, set and int work, like epgc's."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(REF_ITERATIONS):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + (i & 3)
        if key in seen:
            acc += 1
        else:
            seen.add(key)
        acc ^= len(table)
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed


class Calibration:
    """Loop samples taken between segments of work; segment j lies between
    samples j and j + 1."""

    def __init__(self) -> None:
        self.samples = [reference_loop()]

    def mark(self) -> int:
        """End the current segment with a sample; return its index."""
        self.samples.append(reference_loop())
        return len(self.samples) - 2

    def factors(self) -> list[float]:
        """The factor that turns each segment into reference seconds."""
        return [
            REF_SECONDS / statistics.median(self.samples[max(0, j + 1 - WINDOW) : j + 1 + WINDOW])
            for j in range(len(self.samples) - 1)
        ]
