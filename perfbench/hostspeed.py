"""Host speed, measured by a fixed probe run between timed ops.

The benchmark runs on a few cores of a shared host whose speed moves by
15-25 % for seconds to minutes at a time, far more than the changes it has
to resolve. A fixed piece of Python, run beside each op, slows down with
the host, so an op's host time divided by the probe's time around it is
steady while the raw time is not: over 30 s stretches of the same sweep and
replay ops on a 2-CPU shared host, the quartile spread of raw throughput was
0.09-0.14 of its median and that of the divided throughput 0.02. The
benchmark reports times scaled to a reference host, on which one probe
takes exactly ``PROBE_REF_S``.

The probe is benchmark code, not program code, so a change to the program
moves the scaled times in the same proportion as the raw ones.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

# Host seconds of one probe on the reference host: about what it takes on a
# 2-CPU shared x86-64 host under Python 3.11, where it measured 0.6-1.1 ms,
# so scaled times read close to raw ones there.
PROBE_REF_S = 0.7e-3
MIN_PROBES = 3

_XS = np.arange(32, dtype=float)


def _work() -> float:
    # The kinds of work bagcell's own code does: interpreter arithmetic,
    # building dicts, lists and strings, a JSON round trip, a sort and
    # NumPy scalar calls.
    s = 0
    for k in range(3500):
        s += k * k % 7
    d = {}
    for k in range(80):
        d[f"k{k}"] = {"a": k, "b": [k, k + 1.5, str(k)], "c": (k, k * 2)}
    back = json.loads(json.dumps(d, sort_keys=True))
    ranked = sorted(back.items(), key=lambda kv: kv[1]["a"] % 17)
    acc = float(s)
    for k in range(50):
        acc += float(np.hypot(_XS[k % 32], 3.0)) + ranked[k % 80][1]["a"]
    return acc


def probe_s(min_s: float) -> float:
    """Median host seconds of one probe, over MIN_PROBES probes or ``min_s`` of them.

    The garbage collector is off while probes run, so the size of the
    program's heap cannot reach the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        total = 0.0
        while len(times) < MIN_PROBES or total < min_s:
            t0 = time.perf_counter()
            _work()
            t = time.perf_counter() - t0
            times.append(t)
            total += t
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
