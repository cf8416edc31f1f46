"""A fixed reference kernel that measures how fast the host runs right now.

Shared hosts change speed on their own: the same round of a workload can
take 1.3 s or 2.7 s, and the host stays fast or slow for seconds to
minutes.  Medians over a run cannot take that out, since a whole run can
fall in a slow phase.  So every round is bracketed by this kernel, and the
reported times are scaled by ``NOMINAL_S / kernel time``: they read as the
times on a host where the kernel takes ``NOMINAL_S``.

The kernel does what the engine does, at the same sizes: a delay-line
shift, a matrix-vector product, row-wise dot products, a masked NLMS step
and an edge gather with a scatter-add, in a Python loop over iterations.
Its inputs are fixed; they depend neither on the workload seed nor on the
package, so a change to ``asdnlms`` moves the scaled times and leaves the
kernel alone.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1
ITERATIONS = 1000
V, M, EDGES = 20, 50, 120


def _inputs():
    rng = np.random.default_rng(20070645)
    return (rng.integers(0, V, EDGES), rng.integers(0, V, EDGES), rng.standard_normal(M),
            rng.standard_normal((ITERATIONS, V)), 0.01 * rng.standard_normal((ITERATIONS, V)))


_INPUTS = _inputs()


def reference_seconds() -> float:
    """Run the kernel once and return its duration in seconds."""
    src, dst, w_opt, inputs, noises = _INPUTS
    U = np.zeros((V, M))
    W = np.zeros((V, M))
    t0 = time.perf_counter()
    for n in range(ITERATIONS):
        U[:, 1:] = U[:, :-1]
        U[:, 0] = inputs[n]
        e = U @ w_opt + noises[n] - np.einsum("vm,vm->v", U, W)
        mu = 0.1 / (1e-6 + np.einsum("vm,vm->v", U, U))
        psi = np.where((e > 0)[:, None], W + (mu * e)[:, None] * U, W)
        diff = psi[src] - W[dst]
        acc = np.zeros((V, M))
        np.add.at(acc, dst, diff)
        W = psi - 1e-3 * acc
        np.bincount(dst, weights=(diff * diff).sum(axis=1), minlength=V)
    return time.perf_counter() - t0
