"""Equal-width histograms of run-time estimates, with CSV export."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Histogram:
    bin_count: int
    interval: tuple[float, float]
    counts: tuple[int, ...]
    overflow: int               # samples outside the interval

    def bin_left(self, i: int) -> float:
        lo, hi = self.interval
        return lo + i * (hi - lo) / self.bin_count

    def bin_center(self, i: int) -> float:
        lo, hi = self.interval
        return lo + (i + 0.5) * (hi - lo) / self.bin_count

    def mode_bin(self) -> int:
        return max(range(self.bin_count), key=lambda i: (self.counts[i], -i))

    def to_csv(self) -> str:
        lines = ["bin_left,bin_right,count"]
        for i, c in enumerate(self.counts):
            lines.append(f"{self.bin_left(i)!r},{self.bin_left(i + 1)!r},{c}")
        return "\n".join(lines) + "\n"


def histogram(values, bin_count: int = 100,
              interval: tuple[float, float] = (-2.0, 2.0)) -> Histogram:
    """Equal-width half-open bins over `interval`; out-of-range samples are
    tallied separately and excluded from the bins.  The interval needs
    `lo < hi` and a finite width (so finite ends)."""
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = interval
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError("interval needs lo < hi and a finite width, got "
                         f"{tuple(interval)}")
    width = (hi - lo) / bin_count
    counts = [0] * bin_count
    overflow = 0
    for v in values:
        if lo <= v < hi:
            idx = min(int((v - lo) / width), bin_count - 1)
            counts[idx] += 1
        else:
            overflow += 1
    return Histogram(bin_count, interval, tuple(counts), overflow)
