"""Central finite-difference gradient oracle, independent of the tape engine.

The oracle only ever calls a scalar-valued function of plain numpy arrays;
it never inspects analytic gradients, so it stays a fair second route for
every gradient check in the suite. ``probe`` is the one tape op here: the
scalar that gradient checks differentiate.
"""

import numpy as np

import cosinet.ndgrad as nd


def probe(out, w=1.0):
    """sum(out * w) as a (1, 1) tensor on ``out``'s tape, a test-only op.

    ``w`` is a plain array broadcastable to ``out`` (ones by default), so
    the full Jacobian of ``out`` is exercised.
    """
    w = np.broadcast_to(np.asarray(w, dtype=out.data.dtype), out.data.shape)

    def backward(g):
        nd._acc(out, g[0, 0] * w)

    return nd._op("probe", (out.data * w).sum().reshape(1, 1), backward, out)


def numeric_gradient(f, arrays, index, eps):
    """d f(arrays) / d arrays[index] by central differences, entry by entry."""
    work = [a.copy() for a in arrays]
    target = work[index]
    grad = np.zeros(target.shape, dtype=np.float64)
    flat = target.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(work))
        flat[i] = orig - eps
        fm = float(f(work))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def max_rel_error(analytic, numeric):
    """|a - n|_inf normalized by the larger gradient magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)

