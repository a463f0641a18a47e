"""A fixed reference computation that measures the machine's current speed.

The shared host this benchmark was built on changes speed by up to 2x in
spells of seconds to minutes, and process CPU time slows with wall time,
so neither clock alone can tell a slower program from a slower machine.
``reference()`` is pure-Python work of the kind toruslift does (tuple-keyed
dicts of columns, modular arithmetic, list building and scans) that never
changes with the program.  Timed right before and right after a round, it
gives the machine's speed during that round, and

    time at reference speed = wall time * REFERENCE_S / reference time

is the round's wall time on a machine where ``reference()`` takes
REFERENCE_S seconds.  A change to toruslift moves the first factor and not
the last, so it shows in full; a change of the host's speed moves both.
"""

import time

#: the reference's usual wall time on the machine the README's figures
#: were taken on (2-vCPU VM, CPython 3.11.7); it only sets the scale
REFERENCE_S = 0.060


def _pass(m):
    table = {}
    for a in range(m):
        for b in range(m):
            for c in range(m):
                table[(a, b, c)] = [((a * x + b) % m, (c * x + a) % m)
                                    for x in range(2 * m)]
    total = 0
    for (a, b, c), col in table.items():
        moved = table[(b, c, a)]
        for (p, q), (r, s) in zip(col, moved):
            if (p - r) % m == q:
                total += s
    s = 0
    for i in range(40000):
        s = (s * 31 + i) % 1000003
    return total + s


def reference(passes=4, m=11):
    """The fixed work; about REFERENCE_S seconds."""
    return sum(_pass(m) for _ in range(passes))


def time_reference():
    """Wall time of one ``reference()``."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class ReferenceClock:
    """Scales measured wall times to reference speed.

    A reference runs when the clock is made and after every ``scale``, so
    each call timed right after the last reference is bracketed by two,
    and its wall time is scaled by REFERENCE_S over their mean."""

    def __init__(self):
        self.references = [time_reference()]

    def scale(self, wall):
        """Take the closing reference; ``wall`` at reference speed."""
        self.references.append(time_reference())
        return wall * REFERENCE_S / (sum(self.references[-2:]) / 2)
