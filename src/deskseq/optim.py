"""AdamW with decoupled weight decay and per-parameter bias correction.

A step reads only the gradients `backward` wrote into the store's arena.  Its
moments live in two buffers laid out as the arena, viewed by `slots[owner]`'s
`m` and `v` (moments held elsewhere, as loaded, are copied in at their first
step), with a step count `t` from the owner's first step.  Runs of arena
neighbours with equal `t` are updated in place, chunk by chunk, op for op as
the per-tensor update: the bytes do not depend on the runs or the chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CHUNK = 65536  # elements per pass: the six arrays of a pass stay in cache
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
    """In place, `a` and `b` scratch: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p = p - lr (m / (1 - b1^t) / (sqrt(v / (1 - b2^t)) + eps) + wd p)."""
    np.add(np.multiply(m, BETA1, out=m), np.multiply(g, 1.0 - BETA1, out=a), out=m)
    np.multiply(np.multiply(g, g, out=a), 1.0 - BETA2, out=a)
    np.add(np.multiply(v, BETA2, out=v), a, out=v)
    np.divide(m, 1.0 - BETA1 ** t, out=a)
    np.add(np.sqrt(np.divide(v, 1.0 - BETA2 ** t, out=b), out=b), EPS, out=b)
    np.divide(a, b, out=a)
    if wd:  # at 0, wd p is ±0 for a finite p and changes no bit of it
        np.add(a, np.multiply(p, wd, out=b), out=a)
    np.subtract(p, np.multiply(a, lr, out=a), out=p)
