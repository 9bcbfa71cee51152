"""Agent-by-agent construction of the generated agents: what ``generate_instance`` is diffed against.

``agent_stacks`` draws and builds one agent at a time, with one ``qr`` and
one matrix product per agent, and stacks the results.  ``danyra`` draws the
same numbers in the same order, but merges the uniform draws into runs of
``rng.random`` that it scales afterwards, and builds all agents at once with
batched linear algebra; the tests require ``A``, ``d``, ``P`` and ``Q`` to be
bit-identical for the same random generator.  The draws here stay
``rng.uniform``, so the tests also check that the installed numpy's
``uniform(a, b)`` is ``a + (b - a) * random()``.
"""

from __future__ import annotations

import numpy as np


def agent_stacks(n: int, r_max: float, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """``(A, d, P, Q)`` stacks of the benchmark agents, continuing from ``rng``'s state."""
    d = np.array([r_max / n, 1.0 / n])
    A, D, P, Q = [], [], [], []
    for _ in range(n):
        C = float(rng.uniform(0.5, 2.0))
        eigs = rng.uniform(0.5, 2.0, size=2)
        basis, r = np.linalg.qr(rng.standard_normal((2, 2)))
        basis = basis * np.sign(np.diag(r))
        P_i = (basis * eigs) @ basis.T
        P.append(0.5 * (P_i + P_i.T))
        Q.append(1.0 - rng.random(2))
        A.append(np.diag([1.0, C]))
        D.append(d.copy())
    return np.stack(A), np.stack(D), np.stack(P), np.stack(Q)
