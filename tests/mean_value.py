"""The mean-value matrix of the moving-plane linearization, as a test oracle.

Through det(H_lam) - det(H) = tr(A (H_lam - H)) with

    A = integral_0^1 adj((1 - t) H_lam + t H) dt

the reflected difference U satisfies a linear elliptic inequality.  The
audit of :func:`masym.movingplane.linearize` reads the trace term as the
difference of the discrete operator at a node's reflection and at the
node, and forms no A; nor does it form the reflected Hessian H_lam =
Q D^2 u(x_lam) Q, whose determinant and trace it reads off D^2 u(x_lam).
The integrand is linear in t for 2x2 Hessians, so A = adj((H_lam + H) /
2) in closed form.  This module owns the Hessian read-out of a frame's
stack rows, :func:`_hessians`, and the reflection Q H Q,
:func:`_reflect_hessian`, and forms A from them, so the tests can check
the identity the audit rests on.
"""

import numpy as np


def _hessians(rows, m):
    """The entries of the Hessians in the (rows, K) values of the stack's rows."""
    # entries (0, 0), (0, 1), (1, 0), (1, 1) are the rows uxx, uxy, uxy, uyy
    uxx, uyy, uxy = rows[4 * m + 1:5 * m + 1], rows[5 * m + 1:6 * m + 1], rows[6 * m + 1:7 * m + 1]
    return [[uxx, uxy], [uxy, uyy]]


def _reflect_hessian(Q, H):
    """The entries of Q H Q, as (Q H) Q, from the entries of H."""
    # P[r][c] = Q[r, 0] H[0][c] + Q[r, 1] H[1][c]
    P = [[Q[r, 0] * H[0][c] + Q[r, 1] * H[1][c] for c in (0, 1)] for r in (0, 1)]
    # out[r][c] = P[r][0] Q[0, c] + P[r][1] Q[1, c]
    return [[P[r][0] * Q[0, c] + P[r][1] * Q[1, c] for c in (0, 1)] for r in (0, 1)]


def _matrices(E):
    """(m, K, 2, 2) matrices from their entry arrays E[r][c], each (m, K)."""
    return np.stack([np.stack(E[0], axis=-1), np.stack(E[1], axis=-1)], axis=-2)


def stack_hessians(rows, m):
    """(m, K, 2, 2) Hessians in the (rows, K) values of the stack's rows, as
    they were interpolated: unreflected."""
    return _matrices(_hessians(rows, m))


def frame_hessians(frame):
    """(m, K, 2, 2) reflected Hessians H_lam = Q D^2 u(x_lam) Q and Hessians
    H at the cap nodes of ``frame``, read off its stack rows."""
    Q = np.eye(2) - 2.0 * np.outer(frame.nu, frame.nu)
    H_lam = _reflect_hessian(Q, _hessians(frame.at_refl, frame.m))
    return _matrices(H_lam), stack_hessians(frame.at_node, frame.m)


def mean_value_matrix(H_lam, H):
    """A = adj((H_lam + H) / 2) over (..., 2, 2) stacks."""
    M = 0.5 * (H_lam + H)
    return np.stack([np.stack([M[..., 1, 1], -M[..., 0, 1]], axis=-1),
                     np.stack([-M[..., 1, 0], M[..., 0, 0]], axis=-1)], axis=-2)
