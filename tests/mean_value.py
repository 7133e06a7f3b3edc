"""The mean-value matrix of the moving-plane linearization, as a test oracle.

Through det(H_lam) - det(H) = tr(A (H_lam - H)) with

    A = integral_0^1 adj((1 - t) H_lam + t H) dt

the reflected difference U satisfies a linear elliptic inequality.  The
audit of :func:`masym.movingplane.linearize` reads the trace term as the
difference of the discrete operator at a node's reflection and at the
node, and forms no A.  The integrand is linear in t for 2x2 Hessians, so
A = adj((H_lam + H) / 2) in closed form; these helpers form it from a
frame's stack rows, so the tests can check the identity the audit rests on.
"""

import numpy as np

from masym.movingplane import _hessians, _reflect_hessian


def _matrices(E):
    """(m, K, 2, 2) matrices from their entry arrays E[r][c], each (m, K)."""
    return np.stack([np.stack(E[0], axis=-1), np.stack(E[1], axis=-1)], axis=-2)


def frame_hessians(frame):
    """(m, K, 2, 2) reflected Hessians H_lam = Q D^2 u(x_lam) Q and Hessians
    H at the cap nodes of ``frame``, read off its stack rows as the audit
    reads them."""
    Q = np.eye(2) - 2.0 * np.outer(frame.nu, frame.nu)
    H_lam = _reflect_hessian(Q, _hessians(frame.at_refl, frame.m))
    return _matrices(H_lam), _matrices(_hessians(frame.at_node, frame.m))


def mean_value_matrix(H_lam, H):
    """A = adj((H_lam + H) / 2) over (..., 2, 2) stacks."""
    M = 0.5 * (H_lam + H)
    return np.stack([np.stack([M[..., 1, 1], -M[..., 0, 1]], axis=-1),
                     np.stack([-M[..., 1, 0], M[..., 0, 0]], axis=-1)], axis=-2)
