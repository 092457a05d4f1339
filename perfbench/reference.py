"""The reference loop that defines the benchmark's time unit, `ref`.

A `ref` metric is a time divided by the time of `reference_loop()` measured
in the same run, between the operations, so that a slow or busy host can be
told from a slow program.  The loop is pure-Python exact arithmetic of the
kind loopcybe spends its time on: Fraction additions accumulated into a
sparse dict.  Never change it: any change rescales every `ref` metric and
makes old and new results incomparable (`setup_s` is rescaled by it too).
"""

from fractions import Fraction

REFERENCE_RESULT = Fraction(-2729, 420)


def reference_loop() -> Fraction:
    acc = {}
    for i in range(1, 6001):
        key = (i * 7) % 61
        s = acc.get(key, 0) + Fraction(i % 13 - 6, i % 9 + 1)
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return sum(acc.values())
