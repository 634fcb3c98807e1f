"""Named parameter tensors with trainability flags and tie groups.

Tied names refer to the *same* Tensor object, so mutation and gradient
accumulation are shared automatically and trainability is uniform within a
group by construction.  The canonical "owner" of a group is its
lexicographically smallest name; gradient maps and optimizer state are keyed
by owner.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor


class ParameterStore:
    def __init__(self):
        self._params: dict[str, Tensor] = {}

    # -- construction -------------------------------------------------------

    def add(self, name, value, trainable=True):
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(np.asarray(value))
        t.requires_grad = bool(trainable)
        self._params[name] = t
        return t

    def tie(self, new_name, existing_name):
        """Register `new_name` as an alias sharing storage with `existing_name`."""
        if new_name in self._params:
            raise ValueError(f"duplicate parameter name: {new_name}")
        self._params[new_name] = self._params[existing_name]

    # -- access -------------------------------------------------------------

    def __contains__(self, name):
        return name in self._params

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def names(self):
        return sorted(self._params)

    def owner(self, name):
        target = self._params[name]
        return min(n for n, t in self._params.items() if t is target)

    def group_of(self, name):
        target = self._params[name]
        return sorted(n for n, t in self._params.items() if t is target)

    def tie_groups(self):
        """All name groups sharing storage, size > 1, sorted canonically."""
        by_id: dict[int, list[str]] = {}
        for n, t in self._params.items():
            by_id.setdefault(id(t), []).append(n)
        return sorted(sorted(g) for g in by_id.values() if len(g) > 1)

    def unique_items(self):
        """(owner_name, tensor) pairs, one per storage, sorted by owner."""
        seen = set()
        items = []
        for n in sorted(self._params):
            t = self._params[n]
            if id(t) in seen:
                continue
            seen.add(id(t))
            items.append((n, t))
        return items

    def trainable(self):
        return {n: t.requires_grad for n, t in self._params.items()}

    # -- mutation -----------------------------------------------------------

    def set_trainable(self, name, flag):
        self._params[name].requires_grad = bool(flag)

    def set_all_trainable(self, flag):
        for _, t in self.unique_items():
            t.requires_grad = bool(flag)

    def zero_grad(self):
        for _, t in self.unique_items():
            t.grad = None

    def gradient_map(self):
        """{owner -> gradient array} for trainable parameters touched by backward."""
        out = {}
        for owner, t in self.unique_items():
            if t.requires_grad:
                out[owner] = t.grad if t.grad is not None else np.zeros_like(t.data)
        return out

    def copy(self):
        """Deep copy preserving tie structure and trainability."""
        clone = ParameterStore()
        mapping = {}
        for n in sorted(self._params):
            t = self._params[n]
            if id(t) in mapping:
                clone._params[n] = mapping[id(t)]
            else:
                nt = Tensor(t.data.copy())
                nt.requires_grad = t.requires_grad
                mapping[id(t)] = nt
                clone._params[n] = nt
        return clone
