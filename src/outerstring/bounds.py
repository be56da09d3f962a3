"""Exact evaluation of the chi-bound recurrences.

Everything is arbitrary-precision integer arithmetic; the values grow as
towers and overflow any fixed width immediately.  The m-fold composition in
``g2_bound`` uses the closed form of the affine map f (f(x) = A*x + C), so
large m costs one exponentiation instead of m rounds.
"""

from __future__ import annotations


def _f_affine(k: int, xi: int) -> tuple[int, int]:
    """The skeleton-threshold map f(alpha) as an affine function A*alpha + C.

    f comes from the recurrence beta_0 = 0, beta_{i+1} = 2*beta_i +
    (2*alpha + 6*k)*xi + 2 run for i = 0..k, followed by
    f = 2^(k+2) * (beta_{k+1} + 2*xi + 1).  Unrolling gives
    beta_{k+1} = (2^(k+1) - 1) * ((2*alpha + 6*k)*xi + 2).
    """
    geom = 2 ** (k + 1) - 1
    A = 2 ** (k + 2) * geom * 2 * xi
    C = 2 ** (k + 2) * (geom * (6 * k * xi + 2) + 2 * xi + 1)
    return A, C


def f_bound(alpha: int, k: int, xi: int) -> int:
    """Chromatic threshold above which a skeleton-supported subfamily of
    chromatic number > alpha exists (clique number <= k, induction value xi)."""
    if k < 1 or xi < 1 or alpha < 0:
        raise ValueError("need k >= 1, xi >= 1, alpha >= 0")
    beta = 0
    for _ in range(k + 1):
        beta = 2 * beta + (2 * alpha + 6 * k) * xi + 2
    return 2 ** (k + 2) * (beta + 2 * xi + 1)


def _f_iterated(times: int, x: int, k: int, xi: int) -> int:
    """f composed ``times`` times, via the affine closed form:
    f^m(x) = A^m * x + C * (A^m - 1) / (A - 1)."""
    A, C = _f_affine(k, xi)
    Am = A ** times
    return Am * x + C * (Am - 1) // (A - 1)


def g2_bound(alpha: int, n: int, k: int, xi: int) -> int:
    """Threshold for extending an n-clique system by a 2-clique."""
    if n < 0:
        raise ValueError("n >= 0 required")
    m = 2 ** n + 1
    beta = 2 * alpha * ((2 ** (m * n + 2) + 2 * m) * xi + 1)
    return _f_iterated(m, beta, k, xi) + 1


def gt_bound(t: int, alpha: int, n: int, k: int, xi: int) -> int:
    """Threshold for extending an n-clique system by a t-clique."""
    if t < 2:
        raise ValueError("t >= 2 required")
    if t == 2:
        return g2_bound(alpha, n, k, xi)
    m = 2 ** n + 1
    beta = alpha
    for i in range(m):
        beta = gt_bound(t - 1, beta, n + i, k, xi)
    return beta


def explicit_chi_bound(k: int) -> int:
    """The chromatic bound certified for families with clique number <= k.

    Iterates the induction: one color suffices for k = 1 (such families are
    pairwise disjoint), and each step lifts the previous bound xi through the
    full clique-system construction.  k = 3 gives a 461-digit value; k = 4
    takes about 2 s and gives about 2 million digits (6,647,380 bits);
    k >= 5 has never been evaluated.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    xi = 1
    for kappa in range(2, k + 1):
        xi = gt_bound(kappa + 1, 0, 0, kappa, xi)
    return xi
