"""Speed probe: how fast the CPU that runs the benchmark is, moment by moment.

On a shared virtual machine the same work can take 1.5x longer for
stretches of seconds to minutes, because other tenants load the physical
core; the guest sees no steal and has no hardware counters to count work
with.  run.py therefore pins itself, its rounds and this probe to one CPU.
The probe runs at the lowest priority, so it takes about 1% of that CPU,
and times a fixed chunk of interpreter work (rational arithmetic and dict
updates, like the engine's) over and over.  A chunk's CPU time rises and
falls with the core's speed, so the mean chunk time during a window of the
benchmark measures how fast the core was in that window.

The probe runs until its standard input is closed, then prints one
"monotonic_end cpu_seconds" line per chunk and exits.
"""

import os
import select
import sys
import time
from fractions import Fraction

# Mean CPU time of one chunk that defines the reference speed.
REFERENCE_CHUNK_S = 300e-6


def chunk() -> int:
    acc = Fraction(0)
    seen = {}
    for i in range(60):
        acc += Fraction(i * 7 + 1, i + 3)
        seen[(i, i % 7)] = acc.numerator % 97
    return len(seen)


def main() -> int:
    os.nice(19)
    records = []
    while not select.select([sys.stdin], [], [], 0)[0]:
        for _ in range(20):
            start = time.process_time()
            chunk()
            records.append((time.monotonic(), time.process_time() - start))
    sys.stdout.write("".join(f"{t!r} {c!r}\n" for t, c in records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
