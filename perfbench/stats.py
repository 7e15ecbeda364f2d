"""Percentiles that carry their own sample support."""

from __future__ import annotations

from typing import List

import numpy as np

#: a percentile needs at least this many samples beyond it to count
MIN_BEYOND = 10


class PercentileLog:
    """Computes percentiles and remembers each one's support.

    Every reported percentile is logged with its sample count and how
    many samples lie beyond it; :meth:`unsupported` lists those with
    fewer than :data:`MIN_BEYOND` beyond (a median needs 10 above it,
    a p99 about 1000 samples).
    """

    def __init__(self):
        self.records: List[dict] = []

    def percentile(self, name: str, values, q: float) -> float:
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            self.records.append({"name": name, "q": q, "n": 0,
                                 "beyond": 0, "value": None})
            return 0.0
        value = float(np.percentile(arr, q))
        self.records.append({"name": name, "q": q, "n": int(arr.size),
                             "beyond": int((arr > value).sum()),
                             "value": value})
        return value

    def unsupported(self) -> List[dict]:
        """Percentiles with samples but too few of them beyond the value."""
        return [r for r in self.records
                if r["n"] and r["beyond"] < MIN_BEYOND]
