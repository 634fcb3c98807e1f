"""Minimal dense-tensor kernel with reverse-mode automatic differentiation.

Tensors wrap numpy arrays; every differentiable op records a tape node with
a closure computing input gradients, forming an implicit tape that `backward`
replays in reverse topological order.

Values and tape nodes are apart.  An op output is a `Tensor` holding `.data`
and its `_Node`; the node holds the closure, its inputs' nodes, its gradient
during `backward`, and the output's shape, dtype and layout, but no value.  A
leaf (a store parameter or any tensor made directly) is its own node.  So an
op output is freed when the model code drops it, unless a closure saved it.
A closure captures only what its backward reads: the arrays it multiplies
by, shapes as tuples, and input nodes for their `requires_grad`, never an
input `Tensor` for its shape or flag.

Some sums are GEMVs, not numpy reductions.  `_row_sums`, one GEMV of the
rows by ones, gives the softmax denominator and the softmax-backward row sum
in `attention` and `softmax`, and the two row means in `layer_norm`'s
backward; one GEMV of ones by the rows gives `layer_norm`'s gain and bias
gradients.  `layer_norm`'s forward mean and variance stay numpy's sums.  A
row's GEMV sum, like a GEMM row, can depend on how many rows the batch holds:
a BLAS kernel may take rows in blocks and the rest in another order, so the
same row in another batch may differ in its last bit (here, about two rows
in three of 12 to 64 entries did, summed alone and among 64).

The Python side is single-threaded,
so identical seeds and inputs give bit-identical values and gradients as far
as BLAS does.  BLAS threads: the tests (`tests/conftest.py`) and perfbench
(`perfbench/run.py`) pin OpenBLAS to one thread; the command line leaves its
default.  A warm desk 12+12 update gives the same bytes at one and at two
threads on a 2-core machine (`tests/test_acceptance.py` checks it), but a
BLAS may split a larger GEMM or GEMV by thread count.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
from scipy.special import erf

IGNORE = -1  # label sentinel outside any vocabulary range
LN_EPS = 1e-5  # added to each row's variance by `layer_norm`

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A value: `.data`, and for an op output recorded on the tape, `_node`.

    A leaf (a store parameter, or any tensor made directly) has no `_node`: it
    is its own tape node, and holds `.grad` (`_home`: a store parameter's slice
    of its arena's gradient buffer).  An op output's `_parents` and
    `_backward` are its node's; its own `.grad` stays None."""
    __slots__ = ("data", "grad", "requires_grad", "_node", "_home")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None
        self._home = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        if self._node is None:
            raise AttributeError("only an op output recorded on the tape has a backward closure")
        self._node._backward = fn

    def _new_grad(self):
        """The array a first gradient contribution is written into."""
        return np.empty_like(self.data) if self._home is None else self._home

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    """The tape node of an op output: its closure, its parents' nodes (a leaf
    is its own), its gradient during `backward`, and the output's shape, dtype
    and layout, but not the output.  A C-ordered output is recorded as such;
    another is kept, so its gradient can take its layout."""
    __slots__ = ("_backward", "_parents", "grad", "shape", "dtype", "_like")
    requires_grad = True

    def __init__(self, data, parents, backward_fn):
        self._backward = backward_fn
        self._parents = parents
        self.grad = None
        self.shape, self.dtype = data.shape, data.dtype
        self._like = None if data.flags.c_contiguous else data

    def _new_grad(self):
        """An array laid out as `np.zeros_like` lays out the output."""
        return np.empty(self.shape, self.dtype) if self._like is None else np.empty_like(self._like)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node_of(t):
    """The tape node of `t`: its op's node, or `t` itself for a leaf."""
    return t if t._node is None else t._node


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


def _records(inputs):
    """Whether an op over `inputs` records a tape node: grad mode is on and
    some input needs grad.  (A loop: every op asks, and `any` over a
    generator took three times as long.)"""
    if _grad_enabled:
        for t in inputs:
            if t.requires_grad:
                return True
    return False


def _make(data, inputs, backward_fn):
    """Create an op output, recording its tape node only if `_records(inputs)`.
    The node links to the inputs' nodes, not to the input tensors: an input's
    data outlives the op only if `backward_fn` captured it.  An op whose
    closure needs more set-up than its forward made (input nodes, a slope)
    returns `Tensor(out)` first when nothing records, so `no_grad` pays none
    of it."""
    out = Tensor(data)
    if _records(inputs):
        out.requires_grad = True
        out._node = _Node(out.data, tuple(map(_node_of, inputs)), backward_fn)
    return out


def _zeros_like_layout(g, node):
    """Whether `g` is laid out as `np.zeros_like` lays out the output of
    `node`: C order with numpy's own strides, same shape and dtype."""
    if (node._like is not None or type(g) is not np.ndarray or g.dtype != node.dtype
            or g.shape != node.shape):
        return False
    step = g.itemsize
    for n, s in zip(reversed(g.shape), reversed(g.strides)):
        if s != step:
            return False
        step *= n
    return True


def backward(loss):
    """Populate .grad for every leaf the scalar `loss` depends on: each store
    parameter and each tensor made with `requires_grad`.

    The walk runs over tape nodes, which hold no op output: an output lives
    only as long as the model code or some closure holds it.  A warm desk
    12+12 unfrozen update on 24-token documents enters backward with 38.3 MiB
    of traced allocations, the arrays its closures saved and little else, and
    peaks at 40.0 MiB, at its loss.  When each node held its inputs' values
    until the walk reached it, it entered with 59.6 MiB and peaked at 60.8.

    Backward consumes the tape as it walks it.  Once a node's closure has run
    and its gradients have gone to its parents, the node drops its closure,
    its parent links and its own `.grad`, and the walk drops the node, so its
    saved arrays and its gradient are freed while the walk goes on (the update
    above peaked at 103.7 MiB when backward held all of these until it
    returned).  Afterwards only leaves hold `.grad`, and a later backward
    that reaches a consumed node raises instead of reaching nothing: build
    the graph again.

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
    root = _node_of(loss)
    # postorder DFS: parents appear before consumers, so the reversed list
    # visits each node exactly once with its output gradient complete
    topo = []
    seen = set()
    stack = [(root, False)]
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
    root.grad = np.ones_like(loss.data)
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
            elif parent._backward is not None and _zeros_like_layout(g, parent):
                parent.grad = g
                adopted.add(id(parent))
            else:  # zeros, then `+= g`, in one pass
                parent.grad = np.add(g, 0.0, out=parent._new_grad())
        # consumed: `_parents = None` marks it for a later walk
        node._backward = node._parents = node.grad = None


@functools.lru_cache(maxsize=256)
def _ones(n):
    """A read-only float64 vector of `n` ones, made once per length: a fresh
    `np.ones` took a quarter of a beam step's row sum (2.6 against 1.9 µs)."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _row_sums(a):
    """The sums of `a` over its last axis, kept as an axis of length 1, as
    one GEMV of its rows by ones: 4.3 µs on desk scores [8, 4, 24, 24] where
    numpy's `sum(axis=-1)` takes 21.7, though 0.4 µs more on a beam step's
    12 rows.  Its bytes are BLAS's, not numpy's."""
    n = a.shape[-1]
    return np.matmul(a.reshape(-1, n), _ones(n)).reshape(a.shape[:-1] + (1,))


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
    if not _records((a, b)):
        return Tensor(out)
    na, nb, sa, sb = _node_of(a), _node_of(b), a.data.shape, b.data.shape

    def bwd(g):  # None for an operand without grad, as in `linear`
        return (_unbroadcast(g, sa) if na.requires_grad else None,
                _unbroadcast(g, sb) if nb.requires_grad else None)

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
    inputs = (x, w) if b is None else (x, w, b)
    if not _records(inputs):
        return Tensor(out)
    wd, x_shape = w.data, x.data.shape
    nx, nw, nb = _node_of(x), _node_of(w), None if b is None else _node_of(b)

    def bwd(g):
        g2 = g.reshape(-1, wd.shape[0])
        gx = np.matmul(g2, wd).reshape(x_shape) if nx.requires_grad else None
        gw = np.matmul(g2.T, x2) if nw.requires_grad else None  # C order, as the arena
        return gx, gw, g2.sum(axis=0) if nb is not None and nb.requires_grad else None

    return _make(out, inputs, bwd)


def attention(q, k, v, heads, mask=None):
    """Multi-head scaled dot-product attention of projected queries [B, Tq, d]
    over keys and values [B or 1, Tk, d], as one tape node returning the
    merged context [B, Tq, d].  `mask` is an additive array broadcastable to
    the scores [B, heads, Tq, Tk], or None.

    Forward and backward compute the chain split heads -> matmul -> scale ->
    add mask -> softmax -> matmul -> merge heads op for op, with `softmax`'s
    `_row_sums`, so the output and every gradient equal that chain's bit for
    bit.  Each pass after a matmul works in place in the buffer the matmul
    made, and only the softmax output is kept for backward."""
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
    y = np.matmul(qh, np.swapaxes(kh, -1, -2))  # the scores, made the softmax in place
    y *= s
    if mask is not None:
        y += mask
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= _row_sums(y)
    out = merge(np.matmul(y, vh))
    if not _records((q, k, v)):
        return Tensor(out)
    nq, nk, nv = _node_of(q), _node_of(k), _node_of(v)

    def bwd(g):
        # the chain's context gradient is C-ordered [B, H, Tq, hd]; matmul on
        # a strided view of it would not give the same bytes
        gctx = np.ascontiguousarray(g.reshape(b, tq, heads, hd).transpose(0, 2, 1, 3))
        gs = np.matmul(gctx, np.swapaxes(vh, -1, -2))
        gs -= _row_sums(gs * y)
        gs *= y
        gs *= s
        gq = gk = gv = None
        if nq.requires_grad:
            gq = merge(np.matmul(gs, kh))
        if nk.requires_grad:  # reduced as the chain's transposed keys [B, H, hd, Tk]
            gkt = np.matmul(np.swapaxes(qh, -1, -2), gs)
            gk = merge(np.swapaxes(_unbroadcast(gkt, np.swapaxes(kh, -1, -2).shape), -1, -2))
        if nv.requires_grad:
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
    """x * Phi(x), with Phi the standard normal CDF.  A recorded node saves
    one array, the slope cdf + x * pdf, computed only when the node is
    recorded: backward is `g * slope`, the bytes of `g * (cdf + x * pdf)`.
    Saving x and cdf, two arrays, a warm desk 12+12 unfrozen update on
    24-token documents peaked at 44.2 MiB of traced allocations, against
    40.0 MiB saving the slope.  cdf and the slope are each built in place in
    one buffer of their own."""
    a = as_tensor(a)
    x = a.data
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))  # an array even for a 0-d x
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf
    if not _records((a,)):
        return Tensor(out)
    slope = np.multiply(x, -0.5, out=np.empty_like(x))
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= x
    slope += cdf
    return _make(out, (a,), lambda g: (g * slope,))


def layer_norm(x, gain, bias):
    """Per-row (last axis) zero-mean/unit-variance (+ LN_EPS) normalization, then affine.

    Forward takes numpy's mean and variance sums; backward's two row means
    are `_row_sums` and its gain and bias gradients GEMVs of ones.  xhat, the
    output and the input gradient are each built in place in one buffer."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match feature dim {d}"
        )
    # the reductions np.mean and np.var make, with the centring done once
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d  # centred, then scaled in place
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def bwd(g):
        gx = g * gain.data
        t = gx * xhat
        m = _row_sums(t) / d
        gx -= _row_sums(gx) / d
        gx -= np.multiply(xhat, m, out=t)
        gx *= inv
        ones = _ones(g.size // d)  # one per row
        ggain = ones @ np.multiply(g, xhat, out=t).reshape(-1, d)
        gbias = ones @ g.reshape(-1, d)
        return gx, ggain, gbias

    return _make(out, (x, gain, bias), bwd)


def softmax(a):
    """Softmax over the last axis, built in place in one buffer; its
    denominator and backward's row sum are `_row_sums`, as in `attention`."""
    a = as_tensor(a)
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= _row_sums(y)

    def bwd(g):
        gy = g * y
        np.subtract(g, _row_sums(gy), out=gy)
        gy *= y
        return (gy,)

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
    shape, dtype = table.data.shape, table.data.dtype

    def bwd(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, ids.ravel(), g.reshape(-1, shape[1]))
        return (gt,)

    return _make(out, (table,), bwd)


def gather_rows(x, batch_idx, pos_idx):
    """Select feature rows out[k, :] = x[batch_idx[k], pos_idx[k], :]."""
    x = as_tensor(x)
    batch_idx = np.asarray(batch_idx)
    pos_idx = np.asarray(pos_idx)
    out = x.data[batch_idx, pos_idx]
    shape, dtype = x.data.shape, x.data.dtype

    def bwd(g):
        gx = np.zeros(shape, dtype)
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

    Only the scored rows are normalized and saved: each row's max, exp-sum
    and log are its own, so they have the bytes of the whole batch's, and
    backward writes p into those rows of a zero gradient.  An MLM batch
    scores about 15% of its rows.  All-IGNORE batches yield loss 0 with zero
    gradient.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [N, V] logits, got {logits.data.shape}")
    n, v = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} logit rows")
    dtype = logits.data.dtype
    valid = labels != IGNORE
    lv = labels[valid]
    n_valid = lv.size
    if n_valid == 0:
        return _make(np.asarray(0.0, dtype=dtype), (logits,), lambda g: (np.zeros((n, v), dtype),))
    if lv.min() < 0 or lv.max() >= v:
        raise ValueError(f"label out of range [0, {v}): min={lv.min()}, max={lv.max()}")
    logp = logits.data[valid]  # a copy of the scored rows, normalized in place
    logp -= logp.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    rows = np.arange(n_valid)
    loss = np.asarray((-logp[rows, lv]).mean())

    def bwd(g):
        p = np.exp(logp)
        p[rows, lv] -= 1.0
        gl = np.zeros((n, v), dtype)
        gl[valid] = p
        return (gl * (float(g) / n_valid),)

    return _make(loss, (logits,), bwd)
