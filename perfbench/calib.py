"""A fixed reference loop that measures how fast the host runs Python now.

The benchmark's host is shared, and its speed drifts: within three minutes
a job's time halved and doubled again.  A pure-Python loop and the
library's jobs slow down and speed up together, and process CPU time
drifts with wall time, so neither raw time is steady.  So each timed
section is bracketed by this loop, and the benchmark reports its times
scaled to a nominal host speed:

    scaled = measured * REF_NOMINAL_S / reference

where ``reference`` is the loop's time next to the section.  A change to
the library moves the section's time and not the loop's, so it shows in
the scaled figure; a slower host moves both, and cancels.

The loop is the library's two kinds of work, done by code of the
benchmark's own on fixed data that does not depend on the seed:

* elimination: merging packed sparse vectors with arithmetic mod p, over
  a few MB of Python ints, so that cache pressure from the host shows as
  it does in a job;
* replay: reading text records of elementary operations backwards from a
  file (seek, readline, decode, split, int) and applying them to a dense
  vector.

A loop without the file replay followed elimination well and replay
poorly.  The loop never calls the library, so no change to the library can
move it.
"""

from __future__ import annotations

import random
import statistics
import tempfile
import time

P, K = 12379, 20
MASK = (1 << K) - 1
DIM = 3000
# REF_NOMINAL_S is about the loop's median time on the 2-vCPU Xeon host the
# benchmark was written on, so scaled figures read close to seconds there.
REF_NOMINAL_S = 0.04
REPEATS = 5


def _data() -> tuple[list[list[int]], bytes]:
    rng = random.Random("calib")
    vecs = []
    for _ in range(200):
        rows = sorted(rng.sample(range(200_000), 300))
        vecs.append([r << K | rng.randrange(1, P) for r in rows])
    records = "".join("T %d %d %d\n" % (rng.randrange(DIM), rng.randrange(DIM),
                                        rng.randrange(1, P)) for _ in range(10_000))
    return vecs, records.encode("ascii")


def _merge(a: list[int], b: list[int], s: int) -> list[int]:
    out = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, eb = a[i], b[j]
        ra, rb = ea >> K, eb >> K
        if ra < rb:
            append(ea)
            i += 1
        elif ra > rb:
            append(rb << K | (eb & MASK) * s % P)
            j += 1
        else:
            v = ((ea & MASK) + (eb & MASK) * s) % P
            if v:
                append(ra << K | v)
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(rb << K | (eb & MASK) * s % P for eb in b[j:] for rb in (eb >> K,))
    return out


def _once(vecs: list[list[int]], f, offsets: list[int]) -> int:
    total = 0
    for t in range(0, len(vecs), 2):
        total += len(_merge(vecs[t], vecs[t + 1], t + 2))
    x = list(range(DIM))
    for off in reversed(offsets):
        f.seek(off)
        _, i, j, c = f.readline().decode("ascii").split()
        i, j = int(i), int(j)
        x[i] = (x[i] + int(c) * x[j]) % P
    return total + sum(x)


def reference_s(workdir: str) -> float:
    """Median time of REPEATS runs of the loop, in seconds.  Its record file
    is a nameless temporary file in workdir.  The data is built per call and
    dropped after, so that a job's peak RSS does not hold it."""
    vecs, records = _data()
    offsets = [0]
    offsets.extend(i + 1 for i, ch in enumerate(records) if ch == 0x0A)
    offsets.pop()
    times = []
    with tempfile.TemporaryFile(dir=workdir) as f:
        f.write(records)
        f.flush()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _once(vecs, f, offsets)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(measured_s: float, before_s: float, after_s: float) -> float:
    """measured_s at the nominal host speed, from the loop's times just
    before and just after the measured section."""
    return measured_s * REF_NOMINAL_S / ((before_s + after_s) / 2)
