"""Summary statistics and output checks shared by every workload."""

from __future__ import annotations

from repro.fuzz.oracle import bags_equal

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``: the value at rank
    ``n - 11`` of the ascending order, the share of samples at or below
    that rank in percent, and the sample count.  ``None`` when there are
    fewer than eleven samples, because no percentile then has ten
    beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND - 1
    return sorted(values)[rank], 100.0 * (rank + 1) / n, n


def tail_metric(values, unit: str, clock: str):
    """A report row ``(value, unit with percentile and count, clock)`` for
    the tail of ``values``; the value is None below eleven samples."""
    found = tail(values)
    if found is None:
        return None, f"{unit} (fewer than 11 samples)", clock
    value, percentile, count = found
    return value, f"{unit} (p{percentile:.1f} of {count})", clock


class Checker:
    """Counts attempted operations and the ones that failed or were wrong.

    Every mismatch is kept with a label so the run can say what went
    wrong; any failure makes the run exit non-zero."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures

    def fail(self, label: str) -> None:
        self.failures.append(label)

    def rows(self, label: str, got, want) -> bool:
        """Bag equality (float tolerance as in the differential fuzzer)."""
        if got is None or not bags_equal(list(got), list(want)):
            self.fail(f"{label}: rows differ from the reference")
            return False
        return True

    def equal(self, label: str, got, want) -> bool:
        if got != want:
            self.fail(f"{label}: {got!r} != {want!r}")
            return False
        return True
