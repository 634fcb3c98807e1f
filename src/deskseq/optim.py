"""AdamW with decoupled weight decay and per-parameter bias correction.

Moments exist only for trainable parameters and are created lazily, so a
parameter unfrozen mid-plan starts from zero moments and step count 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.0


@dataclass
class OptimState:
    slots: dict = field(default_factory=dict)  # owner -> {"m", "v", "t"}

    def slot(self, owner, shape):
        s = self.slots.get(owner)
        if s is None:
            s = {"m": np.zeros(shape), "v": np.zeros(shape), "t": 0}
            self.slots[owner] = s
        return s


def adam_step(store, grads, state, lr, cfg=AdamConfig()):
    """One AdamW update over exactly the trainable parameters of `store`.

    `grads` must be keyed by owner name and cover the trainable set exactly;
    frozen parameters are untouched (bit-identical before/after).
    """
    trainable = {owner for owner, t in store.unique_items() if t.requires_grad}
    if set(grads) != trainable:
        missing = sorted(trainable - set(grads))
        extra = sorted(set(grads) - trainable)
        raise ValueError(f"gradient map mismatch: missing={missing}, unexpected={extra}")
    for owner in sorted(grads):
        p = store[owner]
        g = np.asarray(grads[owner])
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {owner} shape {p.data.shape}"
            )
        s = state.slot(owner, p.data.shape)
        s["t"] += 1
        t = s["t"]
        s["m"] = cfg.beta1 * s["m"] + (1.0 - cfg.beta1) * g
        s["v"] = cfg.beta2 * s["v"] + (1.0 - cfg.beta2) * (g * g)
        mhat = s["m"] / (1.0 - cfg.beta1 ** t)
        vhat = s["v"] / (1.0 - cfg.beta2 ** t)
        p.data = p.data - lr * (mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * p.data)
