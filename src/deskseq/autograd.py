"""Minimal dense-tensor kernel with reverse-mode automatic differentiation.

Tensors wrap numpy arrays; every differentiable op records its inputs and a
closure computing input gradients, forming an implicit tape that `backward`
replays in reverse topological order.  The Python side is single-threaded,
so identical seeds and inputs give bit-identical values and gradients as far
as BLAS does.  BLAS threads: the tests (`tests/conftest.py`) and perfbench
(`perfbench/run.py`) pin OpenBLAS to one thread; the command line leaves its
default.  The desk chains gave the same bytes at one and at two threads on a
2-core machine, but a BLAS may split a larger GEMM by thread count.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

IGNORE = -1  # label sentinel outside any vocabulary range
LN_EPS = 1e-5  # added to each row's variance by `layer_norm`

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    # `_home`: a store parameter's slice of its arena's gradient buffer
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_home")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._home = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True  # False inside `no_grad`: ops record no tape node


@contextlib.contextmanager
def no_grad():
    """Run a block without recording the tape: every op output is a plain
    tensor, whatever its inputs.  Nests; the previous mode comes back on exit,
    exceptions included."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled():
    """Whether ops record tape nodes: False inside `no_grad`."""
    return _grad_enabled


def _make(data, parents, backward_fn):
    """Create an op output, recording the tape node only if grad mode is on
    and some input needs grad."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(data)


def _zeros_like_layout(g, like):
    """Whether `g` is laid out as `np.zeros_like(like)` is: C order with
    numpy's own strides, same shape and dtype."""
    if type(g) is not np.ndarray or g.dtype != like.dtype or g.shape != like.shape:
        return False
    step = g.itemsize
    for n, s in zip(reversed(g.shape), reversed(g.strides)):
        if s != step:
            return False
        step *= n
    return like.flags.c_contiguous


def backward(loss):
    """Populate .grad for every leaf the scalar `loss` depends on: each store
    parameter and each tensor made with `requires_grad`.

    Backward consumes the tape as it walks it.  Once a node's closure has run
    and its gradients have gone to its parents, the node drops its closure,
    its parent links and its own `.grad`, and the walk drops the node, so its
    saved arrays, its gradient and (when nothing else holds it) its output are
    freed while the walk goes on.  A warm desk 12+12 update on 24-token
    documents peaked at 103.7 MiB of traced allocations when backward held all
    of these until it returned, and at 65.7 MiB consuming the tape.
    Afterwards only leaves hold `.grad`, and a later backward that reaches a
    consumed node raises instead of reaching nothing: build the graph again.

    Each gradient equals zeros, then `+=` of each contribution in tape order,
    bit for bit.  An inner node adopts its first contribution when that has
    the layout zeros would have (a strided one would change BLAS bits
    downstream); an adopted array may be another node's gradient too, so it is
    never written to, and a second contribution makes a new array.  Any other
    first contribution is written as `0.0 + g` (so -0.0 comes out +0.0, as
    from zeros) into a store parameter's arena slice, else into a new array
    laid out as `np.zeros_like` lays out the data.  A store parameter's `.grad`
    is its arena slice every time: the next backward overwrites it.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar, got shape {loss.data.shape}")
    # postorder DFS: parents appear before consumers, so the reversed list
    # visits each node exactly once with its output gradient complete
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise RuntimeError("backward reached a tape node that an earlier backward "
                               "consumed; build the graph again to differentiate it")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    adopted = set()  # ids of the nodes whose gradient is an adopted array
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is not None:
                if id(parent) in adopted:
                    adopted.discard(id(parent))
                    parent.grad = np.add(parent.grad, g, out=np.empty_like(parent.grad))
                else:
                    parent.grad += g
            elif parent._backward is not None and _zeros_like_layout(g, parent.data):
                parent.grad = g
                adopted.add(id(parent))
            else:  # zeros, then `+= g`, in one pass
                out = np.empty_like(parent.data) if parent._home is None else parent._home
                parent.grad = np.add(g, 0.0, out=out)
        # consumed: `_parents = None` marks it for a later walk
        node._backward = node._parents = node.grad = None


def _unbroadcast(g, shape):
    """Sum a gradient down to the broadcast-source shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bwd(g):  # None for an operand without grad, as in `linear`
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), bwd)


def scale(a, s):
    a = as_tensor(a)
    s = float(s)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def matmul(a, b):
    """Matrix product; supports 2-D weights against N-D activations and
    equal-rank batched operands."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}"
        )
    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(out, (a, b), bwd)


def linear(x, w, b=None):
    """Projection x @ w.T + b of activations [..., d_in] by a weight stored
    [d_out, d_in] and a bias [d_out] or None, as one tape node.  The leading
    axes fold into rows, so forward and backward each run one 2-D GEMM over
    all rows: they make the numpy calls of the chain reshape to [rows, d_in]
    -> matmul by the transposed weight -> add (without a bias, none) ->
    reshape back, and the output and every gradient equal that chain's bit
    for bit.  Without a bias, backward returns None in its place."""
    x, w = as_tensor(x), as_tensor(w)
    b = None if b is None else as_tensor(b)
    if w.data.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D [d_out, d_in], got {w.data.shape}")
    if b is not None and b.data.shape != w.data.shape[:1]:
        raise ShapeError(f"linear bias {b.data.shape} does not match weight {w.data.shape}")
    if x.data.ndim < 2 or x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear input {x.data.shape} does not match weight {w.data.shape}")
    x2 = x.data.reshape(-1, w.data.shape[1])  # a view unless x's rows are scattered
    out = np.matmul(x2, w.data.T)
    if b is not None:
        out += b.data
    out = out.reshape(*x.data.shape[:-1], w.data.shape[0])

    def bwd(g):
        g2 = g.reshape(-1, w.data.shape[0])
        gx = np.matmul(g2, w.data).reshape(x.data.shape) if x.requires_grad else None
        gw = np.matmul(g2.T, x2) if w.requires_grad else None  # C order, as the arena
        return gx, gw, g2.sum(axis=0) if b is not None and b.requires_grad else None

    return _make(out, (x, w) if b is None else (x, w, b), bwd)


def attention(q, k, v, heads, mask=None):
    """Multi-head scaled dot-product attention of projected queries [B, Tq, d]
    over keys and values [B or 1, Tk, d], as one tape node returning the
    merged context [B, Tq, d].  `mask` is an additive array broadcastable to
    the scores [B, heads, Tq, Tk], or None.

    Forward and backward make the numpy calls of the chain split heads ->
    matmul -> scale -> add mask -> softmax -> matmul -> merge heads, so the
    output and every gradient equal that chain's bit for bit.  Only the
    softmax output is kept for backward."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim != 3 or q.data.shape[-1] % heads:
        raise ShapeError(f"attention queries {q.data.shape} do not split into {heads} heads")
    if (k.data.shape != v.data.shape or k.data.ndim != 3 or k.data.shape[-1] != q.data.shape[-1]
            or k.data.shape[0] not in (1, q.data.shape[0])):
        raise ShapeError(f"attention keys {k.data.shape} and values {v.data.shape} "
                         f"do not match queries {q.data.shape}")
    b, tq, d = q.data.shape
    hd = d // heads

    def split(x):  # [B, T, d] -> [B, H, T, hd], a view
        return x.reshape(x.shape[0], x.shape[1], heads, hd).transpose(0, 2, 1, 3)

    def merge(x):  # [B, H, T, hd] -> [B, T, d], a copy
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = 1.0 / np.sqrt(hd)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * s
    if mask is not None:
        scores = scores + mask
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(y, vh))

    def bwd(g):
        # the chain's context gradient is C-ordered [B, H, Tq, hd]; matmul on
        # a strided view of it would not give the same bytes
        gctx = np.ascontiguousarray(g.reshape(b, tq, heads, hd).transpose(0, 2, 1, 3))
        ga = np.matmul(gctx, np.swapaxes(vh, -1, -2))
        gs = y * (ga - (ga * y).sum(axis=-1, keepdims=True)) * s
        gq = gk = gv = None
        if q.requires_grad:
            gq = merge(np.matmul(gs, kh))
        if k.requires_grad:  # reduced as the chain's transposed keys [B, H, hd, Tk]
            gkt = np.matmul(np.swapaxes(qh, -1, -2), gs)
            gk = merge(np.swapaxes(_unbroadcast(gkt, np.swapaxes(kh, -1, -2).shape), -1, -2))
        if v.requires_grad:
            gv = merge(_unbroadcast(np.matmul(np.swapaxes(y, -1, -2), gctx), vh.shape))
        return gq, gk, gv

    return _make(out, (q, k, v), bwd)


def transpose(a, axes=None):
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    inv = np.argsort(axes)
    return _make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def reshape(a, shape):
    a = as_tensor(a)
    src = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(src),))


def gelu(a):
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _make(out, (a,), bwd)


def layer_norm(x, gain, bias):
    """Per-row (last axis) zero-mean/unit-variance (+ LN_EPS) normalization, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match feature dim {d}"
        )
    # the reductions np.mean and np.var make, with the centring done once
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        gg = g * gain.data
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        reduce_axes = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=reduce_axes)
        gbias = g.sum(axis=reduce_axes)
        return gx, ggain, gbias

    return _make(out, (x, gain, bias), bwd)


def softmax(a):  # over the last axis
    a = as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _make(y, (a,), bwd)


def embedding(table, ids):
    """Row lookup: out[..., :] = table[ids[...], :]."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.ravel(), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return _make(out, (table,), bwd)


def gather_rows(x, batch_idx, pos_idx):
    """Select feature rows out[k, :] = x[batch_idx[k], pos_idx[k], :]."""
    x = as_tensor(x)
    batch_idx = np.asarray(batch_idx)
    pos_idx = np.asarray(pos_idx)
    out = x.data[batch_idx, pos_idx]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (batch_idx, pos_idx), g)
        return (gx,)

    return _make(out, (x,), bwd)


def dropout(a, p, rng):
    """Inverted dropout as one tape node; identity when p == 0.  It saves a
    bool mask `keep`: `(x * c) * keep`, with c = 1/(1 - p) > 0, has the bytes
    of x times the float mask `keep / (1 - p)` wherever x * c is finite, a
    dropped entry included (±0 with the sign of x)."""
    a = as_tensor(a)
    if p <= 0.0:
        return a
    keep = rng.random(a.data.shape) >= p
    c = 1.0 / (1.0 - p)

    def masked(x):
        out = x * c
        out *= keep
        return out

    return _make(masked(a.data), (a,), lambda g: (masked(g),))


def mix(states, weights):
    """Convex combination sum_i weights[i] * states[i] of same-shape tensors.

    Summed in index order starting from the first term, so an exact one-hot
    weight vector reproduces the selected state bit-for-bit.
    """
    weights = as_tensor(weights)
    states = [as_tensor(s) for s in states]
    if weights.data.shape != (len(states),):
        raise ShapeError(
            f"mix weight length {weights.data.shape} does not match {len(states)} states"
        )
    out = weights.data[0] * states[0].data
    for i in range(1, len(states)):
        out = out + weights.data[i] * states[i].data

    def bwd(g):
        gw = np.array([(g * s.data).sum() for s in states])
        return (gw,) + tuple(weights.data[i] * g for i in range(len(states)))

    return _make(out, (weights, *states), bwd)


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood over positions whose label is not IGNORE.

    All-IGNORE batches yield loss 0 with zero gradient.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [N, V] logits, got {logits.data.shape}")
    n, v = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} logit rows")
    valid = labels != IGNORE
    if valid.any():
        lv = labels[valid]
        if lv.min() < 0 or lv.max() >= v:
            raise ValueError(f"label out of range [0, {v}): min={lv.min()}, max={lv.max()}")
    n_valid = int(valid.sum())
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    if n_valid == 0:
        return _make(np.asarray(0.0, dtype=logits.data.dtype), (logits,),
                     lambda g: (np.zeros_like(logits.data),))
    nll = -logp[valid, labels[valid]]
    loss = np.asarray(nll.mean())

    def bwd(g):
        p = np.exp(logp)
        gl = np.zeros_like(logits.data)
        gl[valid] = p[valid]
        gl[valid, labels[valid]] -= 1.0
        return (gl * (float(g) / n_valid),)

    return _make(loss, (logits,), bwd)
