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

    def _groups(self):
        """Sorted name lists, one per shared tensor, in owner order."""
        by_id: dict[int, list[str]] = {}
        for n in sorted(self._params):
            by_id.setdefault(id(self._params[n]), []).append(n)
        return list(by_id.values())

    def tie_groups(self):
        """All name groups sharing storage, size > 1, sorted canonically."""
        return [g for g in self._groups() if len(g) > 1]

    def unique_items(self):
        """(owner_name, tensor) pairs, one per storage, sorted by owner."""
        return [(g[0], self._params[g[0]]) for g in self._groups()]

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
        return {owner: t.grad for owner, t in self.unique_items()
                if t.requires_grad and t.grad is not None}

    def copy(self):
        """Deep copy preserving tie structure and trainability."""
        clone = ParameterStore()
        for group in self._groups():
            t = self._params[group[0]]
            nt = Tensor(t.data.copy())
            nt.requires_grad = t.requires_grad
            for n in group:
                clone._params[n] = nt
        return clone
