"""Machine-speed probe: a fixed Python loop timed 100 times a second.

The benchmark's host shares its cores with other tenants, and its
speed swings by up to 2x in phases lasting from milliseconds to tens
of seconds.  ``run.py`` starts one probe per CPU a pass runs on, pinned
to that CPU, for the whole run.  The probe sleeps, wakes (preempting
the pass for well under a millisecond), times one fixed loop, and
appends ``<perf_counter at start> <loop seconds>`` to its output file.
The loop's duration at any moment is the CPU's current slowness; the
benchmark divides every measured interval by the probe's mean slowness
over that interval (see ``SpeedTrack`` in ``run.py``).

Usage: ``python3 perfbench/probe.py CPU OUTFILE``; stops on SIGTERM.
"""

from __future__ import annotations

import os
import signal
import sys
import time

#: Seconds between probe samples, and iterations of the timed loop
#: (about 0.4 ms on an uncontended 2 GHz core).
PERIOD_S = 0.01
LOOP_N = 3_000


def probe_loop(n: int = LOOP_N) -> float:
    """A dict/list/float mix like the library's per-request loops."""
    acc = 0.0
    xs = [float(i) for i in range(64)]
    seen: dict[int, float] = {}
    for i in range(n):
        x = xs[i & 63] * 1.000001 + acc
        acc = x if x < 1e9 else 0.0
        seen[i & 255] = acc
    return acc


def main(argv: list[str]) -> int:
    cpu, path = int(argv[0]), argv[1]
    os.sched_setaffinity(0, {cpu})
    stop = False

    def on_term(*_: object) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    with open(path, "w", encoding="utf-8") as out:
        while not stop:
            time.sleep(PERIOD_S)
            start = time.perf_counter()
            probe_loop()
            out.write(f"{start:.6f} {time.perf_counter() - start:.7f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
