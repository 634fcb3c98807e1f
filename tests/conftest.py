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
    """The projection as three tape nodes (transpose, matmul, add): the
    reference `autograd.linear` must equal bit for bit."""
    from deskseq import autograd as ag

    return ag.add(ag.matmul(x, ag.transpose(w)), b)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
