"""AdamW with decoupled weight decay and per-parameter bias correction.

Moments live in two buffers laid out as the store's arena; `slots[owner]`
holds views `m`, `v` into them and a step count `t` from the owner's first
step, so a parameter unfrozen mid-plan starts from zero.  A step updates runs
of arena neighbours with equal `t` in place, chunk by chunk, op for op as the
per-tensor update: the bytes do not depend on the runs or the chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CHUNK = 65536  # elements per pass: the six arrays of a pass stay in cache


@dataclass
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.0


@dataclass
class OptimState:
    slots: dict = field(default_factory=dict)  # owner -> {"m", "v", "t"}
    # (arena, m buffer, v buffer, per arena owner its (m, v) views)
    _moments: tuple = field(default=(None,), init=False, repr=False, compare=False)

    def slot(self, owner, shape):
        s = self.slots.get(owner)
        if s is None:
            s = {"m": np.zeros(shape), "v": np.zeros(shape), "t": 0}
            self.slots[owner] = s
        return s


def adam_step(store, grads, state, lr, cfg=AdamConfig()):
    """One AdamW update of the trainable parameters that `grads` names.

    `grads` is keyed by owner name and may name only trainable owners, so
    frozen parameters are untouched (bit-identical before/after).  A
    trainable owner it leaves out, one the loss never reached, keeps its
    value, moments and step count: no step and no weight decay.
    """
    arena = store.arena()
    trainable = {o for o, t in zip(arena.owners, arena.tensors) if t.requires_grad}
    unexpected = sorted(set(grads) - trainable)
    if unexpected:
        raise ValueError(f"gradient map mismatch: frozen or unknown owners {unexpected}")
    for owner, home in zip(arena.owners, arena.homes):  # before any state changes
        g = grads.get(owner, home)
        if g is not home and np.shape(g) != home.shape:
            raise ValueError(f"gradient shape {np.shape(g)} does not match parameter "
                             f"{owner} shape {home.shape}")
    if state._moments[0] is not arena:
        m, v = np.zeros(arena.bounds[-1]), np.zeros(arena.bounds[-1])
        state._moments = (arena, m, v, list(zip(arena.split(m), arena.split(v))))
    _, m, v, views = state._moments
    runs = []  # [first element, end element, step count]
    for i, owner in enumerate(arena.owners):
        if owner not in grads:
            continue
        if grads[owner] is not arena.homes[i]:  # not from `backward`, which writes there
            arena.homes[i][...] = grads[owner]
        mv, vv = views[i]
        s = state.slots.setdefault(owner, {"m": mv, "v": vv, "t": 0})
        if s["m"] is not mv or s["v"] is not vv:  # moments held elsewhere: copied in
            mv[...], vv[...], s["m"], s["v"] = s["m"], s["v"], mv, vv
        s["t"] += 1
        if runs and runs[-1][1:] == [arena.bounds[i], s["t"]]:  # the last run goes on
            runs[-1][1] = arena.bounds[i + 1]
        else:
            runs.append([arena.bounds[i], arena.bounds[i + 1], s["t"]])
    a, b = np.empty(_CHUNK), np.empty(_CHUNK)
    for lo, hi, t in runs:
        for c in range(lo, hi, _CHUNK):
            e = min(c + _CHUNK, hi)
            _update(arena.data[c:e], arena.grad[c:e], m[c:e], v[c:e], a[:e - c], b[:e - c],
                    t, lr, cfg)


def _update(p, g, m, v, a, b, t, lr, cfg):
    """In place, `a` and `b` scratch: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p = p - lr (m / (1 - b1^t) / (sqrt(v / (1 - b2^t)) + eps) + wd p)."""
    np.add(np.multiply(m, cfg.beta1, out=m), np.multiply(g, 1.0 - cfg.beta1, out=a), out=m)
    np.multiply(np.multiply(g, g, out=a), 1.0 - cfg.beta2, out=a)
    np.add(np.multiply(v, cfg.beta2, out=v), a, out=v)
    np.divide(m, 1.0 - cfg.beta1 ** t, out=a)
    np.add(np.sqrt(np.divide(v, 1.0 - cfg.beta2 ** t, out=b), out=b), cfg.eps, out=b)
    np.add(np.divide(a, b, out=a), np.multiply(p, cfg.weight_decay, out=b), out=a)
    np.subtract(p, np.multiply(a, lr, out=a), out=p)
