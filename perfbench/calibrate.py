"""Host speed probe: a fixed pure-Python task timed between stage samples.

On a shared host the speed of a core drifts by up to about 1.6x, in phases
of under a second to minutes, as other tenants load the same physical
cores.  Wall time alone then measures the neighbours as much as the
program.  The benchmark therefore times this probe right before and right
after every stage sample and reports the sample at the reference speed::

    scaled = wall * REFERENCE_CHUNK_S / mean(probe before, probe after)

The probe is the benchmark's own code, not the program's: a program change
never moves it.  Its work is the program's kind of work (splitting and
lower-casing text, counting n-grams in a dict, sorting, JSON encoding), so
the host's slow phases slow both alike.
"""

from __future__ import annotations

import json
import random
import time

# Mean time of one chunk on the reference host (2 vCPUs of an Intel Xeon at
# 2.1 GHz, Python 3.11), averaged over its fast and slow phases.  Scaled
# times are wall times at that speed; the constant only sets their scale.
REFERENCE_CHUNK_S = 0.015
BLOCK_S = 0.2  # probe time between two stage samples
MIN_CHUNKS = 5

_rng = random.Random(7)
_WORDS = ["".join(_rng.choice("abcdefghijklmnop")
                  for _ in range(_rng.randint(2, 9))) for _ in range(3000)]
_LINES = [", ".join(_rng.sample(_WORDS, 8)) + " (+1)." for _ in range(1000)]


def _chunk() -> float:
    start = time.perf_counter()
    counts: dict[tuple[str, str], int] = {}
    for line in _LINES:
        tokens = line.lower().replace(",", " ").split()
        for pair in zip(tokens, tokens[1:]):
            counts[pair] = counts.get(pair, 0) + 1
    json.dumps(sorted(counts.items())[:2000])
    return time.perf_counter() - start


def probe(seconds: float = BLOCK_S) -> float:
    """Mean chunk time over a block of about ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < MIN_CHUNKS or time.perf_counter() < end:
        times.append(_chunk())
    return sum(times) / len(times)


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, from the probes around it."""
    return wall * REFERENCE_CHUNK_S / ((before + after) / 2)
