"""Arithmetic of the serving benchmark: latency percentiles, the tail
rule, SQNR, span self time and the walk over the open-loop ladder.

Pure functions over plain numbers, so test_metrics.py can pin them.
"""

import math
import statistics

# The tail is the highest percentile with at least this many samples
# strictly beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def tail(values):
    """The highest percentile that keeps TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample_count). With n samples sorted
    ascending that is the (TAIL_BEYOND + 1)-th largest, the
    100 * (n - TAIL_BEYOND) / n percentile. With too few samples for
    any such percentile the maximum is returned as the 100th.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def sqnr_db(signal_energy, noise_energy):
    """Signal-to-quantization-noise ratio in dB from summed squares."""
    if signal_energy <= 0.0:
        raise ValueError("SQNR needs a non-zero signal")
    if noise_energy <= 0.0:
        return math.inf
    return 10.0 * math.log10(signal_energy / noise_energy)


def covered(start, end, children):
    """Length of [start, end] covered by the union of child intervals."""
    clipped = sorted((max(start, s), min(end, e)) for s, e in children
                     if min(end, e) > max(start, s))
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start, end, children):
    """A span's duration minus the part its child spans cover."""
    return (end - start) - covered(start, end, children)


def rung_slo_ms(rung):
    """The latency one ladder rung is held to: its tail, or the time
    the backlog took to drain after the last arrival if longer (a
    growing queue leaves the last requests far behind their due
    times); infinite if any request failed."""
    if rung["failed"]:
        return math.inf
    return max(rung["tail_ms"], rung["drain_ms"])


def rung_passes(rung, limit_ms):
    """One ladder rung meets the SLO."""
    return rung_slo_ms(rung) <= limit_ms


def max_rate_at_slo(rungs, limit_ms):
    """The request rate at which the ladder's latency crosses the limit.

    Each rung carries its offered "rate", which orders the walk, and
    the rate it "sustained" (served requests over its wall time), which
    places it on the rate axis. Walking upward from an implicit rung at
    (0 req/s, 0 ms), the result is interpolated linearly between the
    last rung that meets the limit and the first that misses it, or is
    the last passing rung's rate when the miss is a failed request. If
    every rung meets the limit it is the top rung's sustained rate.
    """
    x0, y0 = 0.0, 0.0
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        y = rung_slo_ms(rung)
        if y > limit_ms:
            if math.isinf(y):
                return x0
            return x0 + (rung["sustained"] - x0) * (limit_ms - y0) / (y - y0)
        x0, y0 = rung["sustained"], y
    return x0
