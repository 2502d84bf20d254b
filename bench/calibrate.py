"""A fixed reference pass that tells how fast this machine runs right now.

The benchmark runs on a few cores of a shared host.  There the same
CPU-bound code can take half as long again from one second to the next,
in CPU time as well as in wall time: the other tenants change the clock
rate and share the cores' caches.  Consecutive passes of a short fixed
workload agree to within a few percent, though, so the benchmark runs
reference_s() between its operations and scales each operation's CPU
time by NOMINAL_S over the mean of the reference passes on either side.
An operation's time is then its CPU time on a machine where one
reference pass takes NOMINAL_S, and a change to flowclass moves it while
a change in the neighbours' load does not.

The pass mixes the kinds of work flowclass does: a product of Fraction
matrices (numkit's exact path), small NumPy products and norms (the
float path and flowsim), and a JSON round trip and a string sort (the
cli's parsing and output).  None of it calls flowclass.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.005  # one reference pass, in CPU seconds, on the nominal machine

_FRACTIONS = [[Fraction(i + 1, j + 2) for j in range(6)] for i in range(6)]
_ARRAY = np.random.default_rng(0).standard_normal((8, 8))
_DOC = {f"k{i}": [i * 0.5, "s" * i, {"a": [1, 2, 3]}] for i in range(60)}


def _work() -> None:
    a = _FRACTIONS
    for _ in range(2):
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*_FRACTIONS)] for row in a]
    x = _ARRAY
    for _ in range(300):
        x = _ARRAY @ x
        x = x / np.linalg.norm(x)
    for _ in range(3):
        json.loads(json.dumps(_DOC))
    sorted(str(i * 7919 % 1000) for i in range(3000))


def reference_s() -> float:
    """CPU seconds of one reference pass."""
    t0 = time.process_time()
    _work()
    return time.process_time() - t0
