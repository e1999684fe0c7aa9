"""Machine-speed reference, sampled all through every timed round.

On a shared virtual machine the CPU's speed changes in phases that last
minutes: the same fixed work ran 40-50 % slower ten minutes later, while
wall time still equalled user CPU time. A fixed piece of reference work,
timed while the program runs, slows with it. `SpeedReference.during()`
arms a one-shot interval timer; each time it fires, the signal handler
times one sample of the reference work and re-arms the timer, so samples
are spread evenly over the round, between Python bytecodes of the
program. A round's time is then reported at reference speed:

    (wall time - time spent in samples) * REFERENCE_SAMPLE_S / median sample

`REFERENCE_SAMPLE_S` is a fixed constant, so a faster program reads
faster, and a faster or slower machine phase cancels out.

The reference work mixes what the denoiser spends its time on: a sparse
matrix-vector product with vector updates (the CG p-step), small dense
Cholesky solves (the bipartition's divergences) and a pure-Python
neighbour walk over lists and a dict (graph code). It depends on nothing
in the program, so it stays the same from one version to the next.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

# Seconds one sample takes at reference speed; reported times are scaled to it.
REFERENCE_SAMPLE_S = 0.004
# Pause between the end of one sample and the start of the next.
INTERVAL_S = 0.1


class SpeedReference:
    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(20180428))
        n, per_row = 6000, 12
        rows = np.repeat(np.arange(n), per_row)
        cols = (rows + rng.integers(-300, 301, rows.size)) % n
        a = sp.csr_matrix((rng.random(rows.size), (rows, cols)), shape=(n, n))
        self._matrix = (a + a.T + 2.0 * per_row * sp.identity(n)).tocsr()
        self._vector = rng.standard_normal(n)
        blocks = rng.standard_normal((8, 10, 10))
        self._spd = [b @ b.T + 10.0 * np.eye(10) for b in blocks]
        self._neighbours = [list(map(int, rng.integers(0, 400, 8))) for _ in range(400)]
        self.samples: list[float] = []

    def work(self) -> float:
        """One sample of fixed reference work."""
        x = self._vector.copy()
        for _ in range(12):
            y = self._matrix @ x
            x = x + (1.0 / float(y @ y)) * y
        total = float(x[0])
        eye = np.eye(10)
        for block in self._spd:
            factor = cho_factor(block, check_finite=False)
            total += float(np.sum(block * cho_solve(factor, eye, check_finite=False)))
        for start in range(0, 400, 20):
            seen = {start}
            frontier = [start]
            for _ in range(2):
                reached = []
                for u in frontier:
                    for v in self._neighbours[u]:
                        if v not in seen:
                            seen.add(v)
                            reached.append(v)
                frontier = reached
            total += len(seen)
        return total

    def sample(self) -> float:
        """Time one sample; the duration is kept in `samples`."""
        t = time.perf_counter()
        self.work()
        seconds = time.perf_counter() - t
        self.samples.append(seconds)
        return seconds

    def speed_factor(self, samples: list[float]) -> float:
        """How much slower than reference speed `samples` ran (1.0: exactly).

        The median, so that a sample the kernel interrupted does not count.
        """
        return float(np.median(samples)) / REFERENCE_SAMPLE_S

    @contextmanager
    def during(self):
        """Take samples every INTERVAL_S while the block runs.

        Yields the list the block's samples are appended to.
        """
        taken: list[float] = []

        def on_timer(signum, frame):
            taken.append(self.sample())
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
