"""AdamW with decoupled weight decay, in Kingma & Ba's folded form.

A step reads only the gradients `backward` wrote into the store's arena.  Its
moments live in two buffers laid out as the arena, viewed by `slots[owner]`'s
`m` and `v` (moments held elsewhere, as loaded, are copied in at their first
step), with a step count `t` from the owner's first step.  Runs of arena
neighbours with equal `t` are updated in place, chunk by chunk.  The update
folds both bias corrections into one step size and an ε scaled by
sqrt(1 - β2^t) (Kingma & Ba 2015, §2), so each chunk takes 9 elementwise passes,
10 with decay, mostly BLAS `dscal`/`daxpy`.  An element's arithmetic does not
depend on its neighbours: the bytes do not depend on the runs or the chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, dscal

_CHUNK = 65536  # elements per pass: the at most three 512 KiB arrays of a pass fit a 2 MiB L2
BETA1, BETA2, EPS = 0.9, 0.99, 1e-8


@dataclass
class OptimState:
    slots: dict = field(default_factory=dict)  # owner -> {"m", "v", "t"}
    # (arena, m buffer, v buffer): the moments laid out as the arena
    _moments: tuple = field(default=(None,), init=False, repr=False, compare=False)


def adam_step(store, grads, state, lr, weight_decay):
    """One AdamW update of the owners in `grads`, each mapped to the arena
    slice that `backward` wrote its gradient into (`store.gradient_map()`).
    Anything else, a frozen or unknown owner included, is refused before any
    state changes.  A trainable owner left out, one the loss never reached,
    keeps its value, moments and step count: no step and no weight decay.
    """
    arena, written = store.arena(), store.gradient_map()
    wrong = sorted(o for o, g in grads.items() if o not in written or g is not written[o])
    if wrong:
        raise ValueError(f"gradient map mismatch: {wrong} must be trainable owners, each "
                         "mapped to the arena slice of its shape that backward wrote")
    if state._moments[0] is not arena:
        state._moments = (arena, np.zeros(arena.bounds[-1]), np.zeros(arena.bounds[-1]))
    _, m, v = state._moments
    runs = []  # [first element, end element, step count]
    for owner, lo, hi in zip(arena.owners, arena.bounds, arena.bounds[1:]):
        if owner not in grads:
            continue
        s = state.slots.setdefault(owner, {"m": 0.0, "v": 0.0, "t": 0})
        if getattr(s["m"], "base", None) is not m:  # new, or held elsewhere: copied in
            mv, vv = m[lo:hi].reshape(grads[owner].shape), v[lo:hi].reshape(grads[owner].shape)
            mv[...], vv[...], s["m"], s["v"] = s["m"], s["v"], mv, vv
        s["t"] += 1
        if runs and runs[-1][1:] == [lo, s["t"]]:  # the last run goes on
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, s["t"]])
    a, b = np.empty(_CHUNK), np.empty(_CHUNK)
    for lo, hi, t in runs:
        for c in range(lo, hi, _CHUNK):
            e = min(c + _CHUNK, hi)
            _update(arena.data[c:e], arena.grad[c:e], m[c:e], v[c:e], a[:e - c], b[:e - c],
                    t, lr, weight_decay)


def _update(p, g, m, v, a, b, t, lr, wd):
    """In place on 1-D float64 arrays, `a` and `b` scratch, with c1 = 1 - b1^t
    and c2 = 1 - b2^t: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p = (1 - lr wd) p - lr sqrt(c2) / c1 * m / (sqrt(v) + eps sqrt(c2)), which is
    p - lr (m / c1 / (sqrt(v / c2) + eps) + wd p) in exact arithmetic."""
    c1, root_c2 = 1.0 - BETA1 ** t, math.sqrt(1.0 - BETA2 ** t)
    _axpy(1.0 - BETA1, g, _scal(BETA1, m))
    _axpy(1.0 - BETA2, np.multiply(g, g, out=a), _scal(BETA2, v))
    np.divide(m, np.add(np.sqrt(v, out=b), EPS * root_c2, out=b), out=a)
    if wd:  # at 0 the scale is 1 and changes no bit of p
        _scal(1.0 - lr * wd, p)
    _axpy(-lr * root_c2 / c1, a, p)


def _scal(alpha, x):
    """x = alpha x, in place."""
    return _in_place(dscal(alpha, x), x)


def _axpy(alpha, x, y):
    """y = y + alpha x, in place."""
    return _in_place(daxpy(x, y, a=alpha), y)


def _in_place(out, x):
    # f2py hands back a copy, and leaves `x` as it was, unless `x` is a 1-D
    # contiguous float64 array: the update would be lost without a word
    if out is not x:
        raise TypeError("AdamW's BLAS operands must be 1-D contiguous float64 arrays")
    return x
