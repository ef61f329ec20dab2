"""Central differences by full recompute.

Independent reference for ``gradcheck._numeric_gradients``: every f+- is a
fresh call of the whole program, nothing is recorded or replayed.  This
is the per-coordinate loop grad_check ran before it replayed its tape.
"""

import numpy as np


def numeric_gradients(fn, work, eps):
    """(f(t + eps) - f(t - eps)) / (2 eps) per coordinate of each input of
    ``work`` that requires grad, one array per input."""
    numeric = []
    for t in work:
        if not t.requires_grad:
            continue
        flat = t.data.reshape(-1)
        diffs = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn(*work).item()
            flat[i] = orig - eps
            f_minus = fn(*work).item()
            flat[i] = orig
            diffs[i] = (f_plus - f_minus) / (2.0 * eps)
        numeric.append(diffs.reshape(t.shape))
    return numeric
