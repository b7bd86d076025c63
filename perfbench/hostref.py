"""Host-speed reference: a fixed loop that no program change touches.

On a shared VM the host's speed drifts by 10-30% over minutes (other
tenants of the machine), and that drift moves every host time the
benchmark reports.
``run.py`` times this loop between the set-up probes and between the
workload's repetitions, and reports both at the reference speed: each
raw host time scaled by the median pass time of its period over
``NOMINAL_S``.  A program change cannot move the loop, so a change that
makes the program faster moves the metrics by the same factor; the
host's drift cancels to the extent that it slows the loop and the
program alike.

The loop is memory-bound pure Python, like the simulator: random lookups
into a table of small dicts and lists that is far larger than the CPU's
caches.  It runs in a child process of its own (this script), so its
table counts in neither the workload's peak RSS nor its garbage
collections.  The child builds the table, then answers each line on its
standard input with the seconds of one pass, and exits at end of input.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time

#: Fixed seconds per pass that the metrics are scaled to: about the
#: fastest passes on the 2-vCPU x86-64 VM (Python 3.11) the reference
#: numbers in README.md come from, where the median pass took 80-90 ms.
NOMINAL_S = 0.075
ENTRIES = 400_000
LOOKUPS = 60_000


class HostRef:
    """The reference loop in a child process; use as a context manager."""

    def __enter__(self) -> "HostRef":
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def sample(self) -> float:
        """Host seconds of one pass of the loop in the child."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host reference process ended early")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> None:
    table = [{"a": i, "b": [i] * 4} for i in range(ENTRIES)]
    order = list(range(ENTRIES))
    random.Random(1).shuffle(order)
    gc.disable()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        total = 0
        for k in range(LOOKUPS):
            entry = table[order[k]]
            total += entry["a"] + entry["b"][2]
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    main()
