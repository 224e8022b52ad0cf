"""A fixed computation whose time tracks the speed of the machine.

Pure Python with the same kind of work as colorfil's inner loops (dict
lookups and integer arithmetic) and no colorfil code, so a change to
colorfil never changes it.  It allocates no containers, so it never
triggers the garbage collector and its time does not depend on what the
measured program left behind.  The runner times it between operations
and scales every operation's time to a reference speed.
"""

import time

_ROWS = {key: dict.fromkeys(range(13), 0) for key in range(211)}


def _work() -> int:
    acc = 0
    for i in range(1200):
        row = _ROWS[(i * 7919) % 211]
        j = i % 13
        row[j] = (row[j] + (i * acc) % 97 + 1) % 1000003
        acc = (acc + row[j] * 31 + j) % 100003
    return acc


def sample() -> float:
    """Median time of three runs of the computation, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]
