"""Named parameter tensors with trainability flags and tie groups.

Tied names refer to the *same* Tensor object, so mutation and gradient
accumulation are shared automatically and trainability is uniform within a
group by construction.  The canonical "owner" of a group is its
lexicographically smallest name; gradient maps and optimizer state are keyed
by owner.

A store that trains keeps its owners in an arena, built at its first update:
float64 data and gradient buffers in owner order (as `params.bin`).  Each
owner's `.data` is a view into the first, and `backward` writes its gradient
into its slice of the second.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor


class _Arena:
    """Data and gradient buffers of (owner, tensor) `items`, in that order."""

    def __init__(self, items):
        self.owners, self.tensors = [o for o, _ in items], [t for _, t in items]
        self.bounds = np.cumsum([0] + [t.data.size for t in self.tensors]).tolist()
        self.data, self.grad = np.empty(self.bounds[-1]), np.empty(self.bounds[-1])
        self.views, self.homes = self.split(self.data), self.split(self.grad)

    def split(self, buf):  # per owner, the view of its slice of `buf`, laid out so
        return [buf[lo:hi].reshape(t.data.shape)
                for t, lo, hi in zip(self.tensors, self.bounds, self.bounds[1:])]


class ParameterStore:
    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._groups_cache = self._arena = None

    # -- construction -------------------------------------------------------

    def add(self, name, value, trainable=True):
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(np.asarray(value))
        t.requires_grad = bool(trainable)
        self._params[name] = t
        self._groups_cache = self._arena = None
        return t

    def tie(self, new_name, existing_name):
        """Register `new_name` as an alias sharing storage with `existing_name`."""
        if new_name in self._params:
            raise ValueError(f"duplicate parameter name: {new_name}")
        self._params[new_name] = self._params[existing_name]
        self._groups_cache = self._arena = None

    # -- access -------------------------------------------------------------

    def __contains__(self, name):
        return name in self._params

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def names(self):
        return sorted(self._params)

    def _groups(self):
        """Sorted name lists, one per shared tensor, in owner order."""
        if self._groups_cache is None:  # once per layout
            by_id: dict[int, list[str]] = {}
            for n in sorted(self._params):
                by_id.setdefault(id(self._params[n]), []).append(n)
            self._groups_cache = list(by_id.values())
        return self._groups_cache

    def tie_groups(self):
        """All name groups sharing storage, size > 1, sorted canonically."""
        return [list(g) for g in self._groups() if len(g) > 1]

    def unique_items(self):
        """(owner_name, tensor) pairs, one per storage, sorted by owner."""
        return [(g[0], self._params[g[0]]) for g in self._groups()]

    def trainable(self):
        return {n: t.requires_grad for n, t in self._params.items()}

    # -- mutation -----------------------------------------------------------

    def arena(self):
        """The owners' arena, built after a layout change; rebound data is copied in."""
        a = self._arena = self._arena or _Arena(self.unique_items())
        for owner, t, view, home in zip(a.owners, a.tensors, a.views, a.homes):
            if t.data is not view:
                if t.data.dtype != np.float64 or t.data.shape != view.shape:  # no silent cast
                    raise ValueError(f"parameter {owner} must stay float64 of shape {view.shape}")
                view[...] = t.data
                t.data, t._home = view, home
        return a

    def set_trainable(self, name, flag):
        self._params[name].requires_grad = bool(flag)

    def set_all_trainable(self, flag):
        for _, t in self.unique_items():
            t.requires_grad = bool(flag)

    def zero_grad(self):
        """Clear every gradient; `backward` then writes into the arena."""
        for t in self.arena().tensors:
            t.grad = None

    def gradient_map(self):
        """{owner -> gradient array} for trainable parameters touched by backward.
        The arrays are arena slices that the next backward overwrites: copy to keep."""
        return {owner: t.grad for owner, t in self.unique_items()
                if t.requires_grad and t.grad is not None}

    def copy(self):
        """Deep copy preserving tie structure and trainability; no arena until it trains."""
        clone = ParameterStore()
        for group in self._groups():
            t = self._params[group[0]]
            nt = Tensor(t.data.copy(), requires_grad=t.requires_grad)
            for n in group:
                clone._params[n] = nt
        return clone
