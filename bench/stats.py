"""Order statistics and the compare verdict, stdlib only.

The verdict follows the small-sandbox rule: a gain needs at least ten
pairs, nine tenths of them won, and a median gap wider than the parent's
interquartile range; a regression is a median worse than the parent's by
more than the metric's bound.  A change that is worse by the mirror of
the gain rule, but within the bound, is unresolved, not unchanged: the
bound, which the box's run-to-run spread sets, is too wide to rule the
slowdown in or out.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS_FOR_GAIN = 10

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9

VERDICTS = ("improved", "unchanged", "unresolved", "regressed")


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def samples_beyond(count: int, percentile: int) -> int:
    """Samples strictly above the nearest-rank ``percentile`` of ``count``."""
    return count - (percentile * count + 99) // 100


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile; refuses a tail with too few samples beyond.

    Raises:
        ValueError: fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond
            the requested percentile (the median is always allowed).
    """
    count = len(values)
    if count == 0 or (pct > 50 and samples_beyond(count, pct) < MIN_TAIL_SAMPLES):
        raise ValueError(
            f"p{pct} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{count} samples leave {max(samples_beyond(count, pct), 0)}"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * count / 100)) - 1]


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, int, int]:
    """``(verdict, pairs won by the change, pairs)`` for one metric.

    Runs pair up in order (run ``i`` of each side).  The bound is the share
    of the parent's median by which the change may be worse.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    lost = sum(1 for p, c in pairs if sign * (c - p) < 0)
    base = median(parent)
    gain = sign * (median(change) - base)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    looks_better = won >= WIN_SHARE * len(pairs) and gain > spread
    looks_worse = lost >= WIN_SHARE * len(pairs) and -gain > spread
    if looks_better and len(pairs) >= MIN_PAIRS_FOR_GAIN:
        return "improved", won, len(pairs)
    if -gain > bound * abs(base):
        return "regressed", won, len(pairs)
    # A change whose every run beats every parent run wins every pair with
    # a gap wider than the spread, so it only reaches this point with too
    # few pairs to claim the gain.
    if looks_better or looks_worse or spread > bound * abs(base):
        return "unresolved", won, len(pairs)
    return "unchanged", won, len(pairs)
