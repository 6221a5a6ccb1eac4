"""A fixed reference kernel that gauges the machine's speed during a run.

The kernel calls only numpy, scipy and the standard library, never the
toolkit, on inputs that depend on no seed, so no change to the toolkit can
make it faster or slower.  It mixes the kinds of work a workload pass
does: a banded complex solve at n=16001, forward and inverse FFTs at the
prime size n=4001, complex elementwise arithmetic and reductions, and
17-digit text formatting written to a file.

After every timed scenario, worker.py samples the kernel for about a
quarter as long as the scenario took, and divides the scenario's time by the
chunk time measured around it.  That cancels the drifts in the speed of
a shared machine that are slower than a scenario, which move both alike.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

REPEATS = 6
SOLVES = 3


class Reference:
    def __init__(self, out_dir: Path):
        rng = np.random.default_rng(20071216)
        n = 16001
        self.ab = np.empty((3, n), complex)
        self.ab[0] = self.ab[2] = -0.5
        self.ab[1] = 1.0 + 1j * rng.random(n)
        self.rhs = rng.random(n) + 1j * rng.random(n)
        m = 4001
        self.psi = np.exp(1j * rng.random(m)) * rng.random(m)
        self.phase = np.exp(-0.5j * np.linspace(-3.0, 3.0, m) ** 2)
        self.values = rng.random(3 * 1001)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "reference.csv"
        self.walls: list = []

    def sample(self, seconds: float) -> float:
        """Run chunks, at least one, for ``seconds``; the mean chunk time."""
        first = len(self.walls)
        spent = 0.0
        while spent < seconds or len(self.walls) == first:
            self.walls.append(self.chunk())
            spent += self.walls[-1]
        return spent / (len(self.walls) - first)

    def chunk(self) -> float:
        """Seconds taken by one fixed chunk of work."""
        start = time.perf_counter()
        for _ in range(REPEATS):
            for _ in range(SOLVES):
                solve_banded((1, 1), self.ab, self.rhs)
                amp = np.fft.ifft(self.phase * np.fft.fft(self.psi))
                density = (amp.conj() * amp).real
                np.gradient(amp).imag.dot(density)
            self.path.write_text("\n".join(f"{v:.17g}" for v in self.values) + "\n")
        return time.perf_counter() - start
