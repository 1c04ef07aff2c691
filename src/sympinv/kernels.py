"""The truncated-series product kernel under every float jet product.

It is plain numpy: the kernel is a small share of any pushforward or
invariant sweep, which is dominated by per-operation Python overhead.
"""

import numpy as np


def mul1(a, b, n_out):
    """Truncated univariate product: first n_out coefficients of a*b.

    Nothing in sympinv calls it; bench/tracer.py binds it by name.
    """
    return np.convolve(a, b)[:n_out]


def mul_table(a, b, pi, pj, pr, n_out):
    """Truncated multivariate product through a precomputed pair table."""
    return np.bincount(pr, weights=a[pi] * b[pj], minlength=n_out)


def backend_name():
    """Name of the kernel implementation, recorded in run provenance."""
    return "python"
