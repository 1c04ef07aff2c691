"""The truncated-series product kernel under every float jet product.

It is plain numpy: the kernel is a small share of any pushforward or
invariant sweep, which is dominated by per-operation Python overhead.

Coefficients are ``(ncoeff,)`` arrays, or ``(ncoeff, B)`` for a batch of B
jets (batch axis last).  A batched product is one ``np.bincount`` over the
slots ``pr * B + column``: it adds each slot's pairs in table order onto
+0.0, as a one-jet call does, so every column has the bits of that call.
"""

import numpy as np


def mul1(a, b, n_out):
    """Truncated univariate product: first n_out coefficients of a*b.

    Nothing in sympinv calls it; bench/tracer.py binds it by name.
    """
    return np.convolve(a, b)[:n_out]


def mul_table(a, b, pi, pj, pr, n_out):
    """Truncated multivariate product through a precomputed pair table."""
    if a.ndim == 1:
        return np.bincount(pr, weights=a[pi] * b[pj], minlength=n_out)
    terms = a[pi]
    terms *= b[pj]  # in place: a batch's (T, B) products are the largest temporary
    return slot_sums(pr, terms, n_out)


def slot_sums(pr, terms, n_out):
    """out[pr[t]] += terms[t] in t order onto +0.0, for (T,) or (T, B) terms."""
    if terms.ndim == 1:
        return np.bincount(pr, weights=terms, minlength=n_out)
    width = terms.shape[1]
    slots = pr[:, None] * width + np.arange(width)
    return np.bincount(slots.ravel(), weights=terms.ravel(),
                       minlength=n_out * width).reshape(n_out, width)


def backend_name():
    """Name of the kernel implementation, recorded in run provenance."""
    return "python"
