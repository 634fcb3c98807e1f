import os

# one BLAS thread, as perfbench/run.py pins: threaded desk-size GEMMs nearly
# double the CPU time for little wall time (set before numpy loads BLAS)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def finite_diff_check(make_loss, tensors, rng, samples_per_tensor=4,
                      h=1e-5, tol=1e-4):
    """Compare backward gradients of a scalar loss against central finite
    differences on a random subset of entries per tensor.

    `make_loss` must rebuild the graph from the current tensor data each call.
    """
    from deskseq import autograd as ag

    loss = make_loss()
    for t in tensors:
        t.grad = None
    ag.backward(loss)
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        n = flat.size
        k = min(samples_per_tensor, n)
        idx = rng.choice(n, size=k, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up = make_loss().item()
            flat[i] = orig - h
            down = make_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            an = grad.reshape(-1)[i]
            assert rel_err(an, fd) < tol, (
                f"gradient mismatch at entry {i}: analytic={an}, fd={fd}"
            )


def composed_linear(x, w, b):
    """The projection as one 2-D GEMM over all rows, in five tape nodes
    (reshape to [rows, d_in], transpose, matmul, add, reshape back): the
    reference `autograd.linear` must equal bit for bit."""
    from deskseq import autograd as ag

    x = ag.as_tensor(x)
    rows = ag.reshape(x, (-1, x.shape[-1]))
    out = ag.add(ag.matmul(rows, ag.transpose(w)), b)
    return ag.reshape(out, (*x.shape[:-1], out.shape[-1]))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def composed_attention(q, k, v, heads, mask=None):
    """Multi-head attention as the chain of tape nodes split heads -> matmul ->
    scale -> add mask -> softmax -> matmul -> merge heads: the reference
    `autograd.attention` must equal bit for bit."""
    from deskseq import autograd as ag

    q, k, v = ag.as_tensor(q), ag.as_tensor(k), ag.as_tensor(v)
    b, tq, d = q.shape
    hd = d // heads

    def split(x):
        return ag.transpose(ag.reshape(x, (x.shape[0], x.shape[1], heads, hd)), (0, 2, 1, 3))

    scores = ag.scale(ag.matmul(split(q), ag.transpose(split(k), (0, 1, 3, 2))),
                      1.0 / np.sqrt(hd))
    if mask is not None:
        scores = ag.add(scores, ag.Tensor(mask))
    ctx = ag.matmul(ag.softmax(scores), split(v))
    return ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)), (b, tq, d))


def sum_all(a):
    """Sum of every entry as a scalar tape node: the gradient suite's losses."""
    from deskseq import autograd as ag

    a = ag.as_tensor(a)
    return ag._make(np.asarray(a.data.sum()), (a,),
                    lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def square(a):
    """Elementwise square as a tape node: the gradient suite's losses."""
    from deskseq import autograd as ag

    a = ag.as_tensor(a)
    return ag._make(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def mul(a, b):
    """Elementwise product as a tape node, broadcasting either operand: the
    gradient suite's weighted losses and the reference chain for `dropout`."""
    from deskseq import autograd as ag

    a, b = ag.as_tensor(a), ag.as_tensor(b)
    return ag._make(a.data * b.data, (a, b), lambda g: (ag._unbroadcast(g * b.data, a.data.shape),
                                                        ag._unbroadcast(g * a.data, b.data.shape)))


def slot(state, owner, shape):
    """The AdamW slot of `owner` in `state`, made with zero moments at step 0
    if it has none."""
    s = state.slots.get(owner)
    if s is None:
        s = {"m": np.zeros(shape), "v": np.zeros(shape), "t": 0}
        state.slots[owner] = s
    return s


def reference_adam_step(store, grads, state, lr, weight_decay):
    """AdamW (beta1 0.9, beta2 0.99, eps 1e-8) one owner at a time, as
    `optim.adam_step` did before the arena: each owner's moments and value
    rebuilt as new arrays, in sorted owner order.  The arena update must equal
    it bit for bit."""
    trainable = {owner for owner, t in store.unique_items() if t.requires_grad}
    unexpected = sorted(set(grads) - trainable)
    if unexpected:
        raise ValueError(f"gradient map mismatch: frozen or unknown owners {unexpected}")
    for owner in sorted(grads):
        p = store[owner]
        g = np.asarray(grads[owner])
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {owner} shape {p.data.shape}"
            )
        s = slot(state, owner, p.data.shape)
        s["t"] += 1
        t = s["t"]
        s["m"] = 0.9 * s["m"] + (1.0 - 0.9) * g
        s["v"] = 0.99 * s["v"] + (1.0 - 0.99) * (g * g)
        mhat = s["m"] / (1.0 - 0.9 ** t)
        vhat = s["v"] / (1.0 - 0.99 ** t)
        p.data = p.data - lr * (mhat / (np.sqrt(vhat) + 1e-8) + weight_decay * p.data)


def reference_backward(loss):
    """`autograd.backward` as it was before the arena: every gradient starts
    as zeros and takes `+=` of each contribution in tape order."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += g
