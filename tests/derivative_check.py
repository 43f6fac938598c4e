"""Finite-difference verification of the optimizer's derivatives."""
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass
class DerivativeReport:
    max_abs_error: float
    max_rel_error: float
    worst_entry: tuple

    def ok(self, tol):
        return self.max_rel_error < tol


def check_derivatives(fn, jac_fn, point, eps=1e-6):
    """Central finite differences against a supplied Jacobian.

    ``fn(z) -> array``, ``jac_fn(z) -> (m, n) array-like``. Returns the worst
    entrywise error; the relative error is measured against the larger of
    the FD estimate magnitude and 1.
    """
    z = np.asarray(point, dtype=float)
    jac = jac_fn(z)
    if sp.issparse(jac):
        jac = jac.toarray()
    jac = np.asarray(jac, dtype=float)
    n = z.shape[0]
    worst = (0, 0)
    max_abs = 0.0
    max_rel = 0.0
    for i in range(n):
        dz = np.zeros(n)
        dz[i] = eps
        fd = (np.asarray(fn(z + dz), dtype=float) - np.asarray(fn(z - dz), dtype=float)) / (2 * eps)
        err = np.abs(jac[:, i] - fd)
        rel = err / np.maximum(np.abs(fd), 1.0)
        j = int(np.argmax(rel))
        if rel[j] > max_rel:
            max_rel = float(rel[j])
            max_abs = float(err[j])
            worst = (j, i)
    return DerivativeReport(max_abs, max_rel, worst)
