"""Speed normalisation against a fixed calibration kernel.

The benchmark machine shares its cores: over tens of seconds the same
pure-Python work can take anywhere from 1x to 1.9x as long, which is far
more than any bound the benchmark could hold.  So a fixed calibration
kernel (this module's own code, never dstab's) runs before and after every
timed operation, and the operation's time is divided by its speed factor:
the mean of the two kernel times over ``KERNEL_REF_S``, a fixed reference
time close to the kernel's typical time on a 2-core Intel Xeon with Python
3.11 and numpy 2.4.  A normalised time is thus what the operation would take
at that reference speed; the raw times are kept alongside.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

KERNEL_REF_S = 0.006


def _kernel() -> int:
    """Fixed work with the program's mix: exact integer elimination, dict
    polynomial products, and small float eigensolves."""
    rng = random.Random(12345)
    total = 0
    for _ in range(2):
        m = [[rng.randint(-999, 999) for _ in range(7)] for _ in range(7)]
        prev = 1
        for k in range(6):
            for i in range(k + 1, 7):
                for j in range(k + 1, 7):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k] or 1
        total += m[6][6]
        p = {(i, j): rng.randint(-10 ** 12, 10 ** 12)
             for i in range(10) for j in range(10)}
        q: dict = {}
        for (a, b), c in p.items():
            for (d, e), f in list(p.items())[:24]:
                key = (a + d, b + e)
                q[key] = q.get(key, 0) + c * f
        total += len(q)
    x = np.array([[rng.uniform(-1, 1) for _ in range(6)] for _ in range(6)])
    for k in range(60):
        total += int(np.linalg.eigvals(x + k * np.eye(6)).real.min() > 0)
    return total


class Meter:
    """Runs the kernel between segments and keeps every kernel time."""

    def __init__(self):
        self.kernel_s: list[float] = []

    def sample(self) -> float:
        t0 = perf_counter()
        _kernel()
        dt = perf_counter() - t0
        self.kernel_s.append(dt)
        return dt

    def around(self, fn):
        """``fn()`` between kernel runs: (its result, the speed factor).

        For a call made once, such as a set-up, so the factor is the mean of
        five kernel runs before it and five after.
        """
        before = [self.sample() for _ in range(5)]
        result = fn()
        after = [self.sample() for _ in range(5)]
        return result, statistics.fmean(before + after) / KERNEL_REF_S

    def loop(self, step, seconds: float | None = None,
             count: int | None = None) -> list:
        """Call ``step(i)`` until ``seconds`` of steps or ``count`` steps.

        Each step returns an object with a ``seconds`` attribute; this sets
        its ``factor`` from the kernel runs on either side of it.
        """
        out: list = []
        spent = 0.0
        before = self.sample()
        while ((count is None or len(out) < count)
               and (seconds is None or spent < seconds)):
            res = step(len(out))
            after = self.sample()
            res.factor = (before + after) / 2 / KERNEL_REF_S
            spent += res.seconds
            out.append(res)
            before = after
        return out
