"""Helpers shared by perfbench/run.py and its tests.

Everything here is pure or close to it, so test_benchlib.py can pin the
rules the benchmark reports by: the percentile rule, the max_qps
staircase, the peak-RSS read and metric-name validity.
"""

import math
import os
import re
import statistics

# Metric names: a letter or digit first, then letters, digits, '_', '.', '-'.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """True when `name` is a usable metric name."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def tail_quantile(n, want=0.99, beyond=10):
    """The highest quantile <= `want` with at least `beyond` of `n` samples
    strictly above its nearest-rank sample; 0.5 when there are too few
    samples for any tail."""
    if n <= 2 * beyond:
        return 0.5
    return min(want, (n - beyond) / n)


def nearest_rank(sorted_xs, q):
    """Nearest-rank quantile of already sorted samples."""
    if not sorted_xs:
        raise ValueError("no samples")
    k = max(1, math.ceil(q * len(sorted_xs)))
    return sorted_xs[k - 1]


def summarize(samples, want=0.99):
    """The percentile rule: the median, plus the highest percentile up to
    `want` that still has at least ten samples beyond it.

    Returns (median, tail_value, tail_quantile, n)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    q = tail_quantile(len(xs), want)
    return statistics.median(xs), nearest_rank(xs, q), q, len(xs)


def best_of_repeats(samples, inputs, pick=min):
    """Samples of iterations that replay the same inputs, best repeat kept.

    `samples` holds one equal-length block per iteration, and iteration i
    ran input `inputs[i]`.  Returns one block per distinct input, in input
    order, each element `pick` (min for times, max for rates) over that
    input's repeats.  Host interference only ever slows a repeat down, so
    the best one is the code's own cost."""
    per, rest = divmod(len(samples), max(len(inputs), 1))
    if rest or not inputs:
        raise ValueError("%d samples do not split into %d iterations"
                         % (len(samples), len(inputs)))
    best = {}
    for i, key in enumerate(inputs):
        block = samples[i * per:(i + 1) * per]
        best[key] = block if key not in best else list(map(pick, best[key], block))
    return [x for key in sorted(best) for x in best[key]]


def staircase_max(steps):
    """max_qps from a rate staircase: `steps` is [(rate, passed)] in the
    order offered.  The answer is the highest passing rate below the first
    two failures in a row (one failing step alone may be a transient), or
    None when nothing passed."""
    best = None
    for i, (rate, passed) in enumerate(steps):
        if passed:
            best = rate if best is None else max(best, rate)
        elif i + 1 < len(steps) and not steps[i + 1][1]:
            break
    return best


def wait_peak_rss_mb(proc):
    """Reap a subprocess.Popen child and return (exit code, peak resident
    set in MiB), from the kernel's accounting of that one child."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB


def spread(values):
    """Quartile spread as a share of the median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
