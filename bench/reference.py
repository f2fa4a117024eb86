"""Reference kernels: fixed work that tracks how loaded the machine is.

The benchmark machine is a virtual machine on a shared host. Another
tenant's work on the same cores slows every process here by up to 1.8x, in
spells that last from seconds to minutes, and a run often falls inside one
spell. To take that out of the end-to-end metrics, the worker runs a small
kernel between operations throughout the run. A kernel does the same kind of
work as its workload, so the load slows both alike, but it is the
benchmark's own code: no change to boltzgas can make it faster or slower.

A pass's load factor is the interquartile mean of the kernel's times in that
pass divided by the kernel's reference time ``REFERENCE_S`` (workloads.py),
about its time on the baseline machine at its quietest. run.py divides each
pass's operation times by it.
"""
from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction


def bigint_transform():
    """The alternating binomial transform of the 1-D exact law, N=384, M=768.

    Big-integer products and exact divisions, then Fractions: the work of
    figure 5 and, in small, of the identity battery.
    """
    n, m = 384, 768
    weights = [math.comb(n, q) * math.comb(m - q + n - 1 - q, n - 1 - q) for q in range(n)]
    weights.append(0)
    total = math.comb(m + n - 1, n - 1)
    out = []
    for count in range(0, n, 16):
        acc, c, sign = 0, 1, 1
        for q in range(count, n + 1):
            if weights[q]:
                acc += sign * c * weights[q]
            c = c * (q + 1) // (q + 1 - count)
            sign = -sign
        out.append(Fraction(acc, total))
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


_TERMS = tuple(
    (comp, math.comb(12, q) * (q + 1))
    for q in range(12)
    for comp in _compositions(q, 3)
)


def composition_sum():
    """A joint-law style sum over 3-part compositions at a few count points.

    Small-integer loops, tuple unpacking, math.comb and one Fraction per
    point: the interpreter-bound work of a joint-lattice point.
    """
    out = []
    for counts in ((0, 0, 0), (1, 2, 0), (2, 1, 3), (3, 3, 1), (0, 4, 2)):
        numerator = 0
        for comp, weight in _TERMS:
            factor = 1
            for mi, ci in zip(comp, counts):
                if ci > mi:
                    factor = 0
                    break
                factor *= math.comb(mi, ci)
            if factor == 0:
                continue
            if (sum(comp) - sum(counts)) % 2:
                factor = -factor
            numerator += weight * factor
        out.append(Fraction(numerator, 1 + sum(counts)))
    return out


def sampler_chunk():
    """One chunk each of a narrow and a wide uniform microstate sampler.

    N=50, M=100 with 8192 rows and N=100, M=1000 with 2048 rows: random
    keys, argpartition, sort, diff and bincount over arrays of 10-20 MB,
    the memory-bound NumPy work of the Monte Carlo sampler.
    """
    import numpy as np  # here, so the cli-small worker stays as small as before

    rng = np.random.default_rng(12345)
    out = []
    for n, m, batch in ((50, 100, 8192), (100, 1000, 2048)):
        keys = rng.random((batch, m + n - 1))
        bars = np.sort(np.argpartition(keys, n - 1, axis=1)[:, : n - 1], axis=1)
        edges = np.concatenate(
            [np.full((batch, 1), -1), bars, np.full((batch, 1), m + n - 1)], axis=1
        )
        energies = np.diff(edges, axis=1) - 1
        offsets = (np.arange(batch) * (m + 1))[:, None]
        out.append(np.bincount((energies + offsets).ravel(), minlength=batch * (m + 1)))
    return out


INTERPRETER_START_S = 0.15  # reference time of interpreter_start


def interpreter_start(env, cwd):
    """A fresh interpreter that imports NumPy and exits.

    Process start and a large import, as in every CLI call, without
    boltzgas itself.
    """
    subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True, timeout=60,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
