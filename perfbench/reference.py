"""Fixed work outside pkb, timed between operations to follow host speed.

On a shared host the same Python code costs up to twice the CPU time in
some minutes as in others. The runner times this work before each set-up
and each operation and scales every time by the reference's nominal
cost over the median of the reference times nearest to it, so a run
reports what it would have taken at the nominal speed. Nothing here
imports pkb, so a change to pkb leaves the reference as it was.

    python3 perfbench/reference.py

runs the work `CHILD_REPEATS` times in a fresh interpreter: the
reference for operations that are whole processes.
"""

from __future__ import annotations

import gc
import time

# CPU time of one `reference_work` call, and of one ``reference.py``
# process, on the measuring host in a quiet minute (see README.md).
# Times are reported at these speeds.
REFERENCE_S = 0.00042
CHILD_REFERENCE_S = 0.060
CHILD_REPEATS = 20


def _nest(x, depth):
    return x if depth == 0 else _nest((x, depth), depth - 1)


def reference_work() -> int:
    """Interpreter-bound work: calls, tuples, a dict, a sort."""
    table = {}
    for i in range(300):
        table[(i % 37, i)] = _nest(i, 8)
    return len(sorted(table, key=lambda k: (k[1] * 7919) % 1009))


def time_reference() -> float:
    """CPU time of one `reference_work` call, with the collector off.

    The call frees all it allocates before it returns, so switching the
    collector off neither saves nor defers a collection for pkb's code.
    """
    gc.disable()
    try:
        t0 = time.process_time()
        reference_work()
        return time.process_time() - t0
    finally:
        gc.enable()


if __name__ == "__main__":
    for _ in range(CHILD_REPEATS):
        reference_work()
