"""The parameter arena: AdamW over it equals the per-owner update bit for bit
and the textbook formula within its rounding bound, `backward` writes
gradients into it as zeros-then-`+=` would, and a store, its copy and their
optimizer states share no memory."""

import tempfile
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskseq import autograd as ag
from deskseq import checkpoint as C
from deskseq import evalft as E
from deskseq import model as M
from deskseq import optim as O
from deskseq import train as T
from deskseq.autograd import IGNORE, Tensor
from deskseq.optim import OptimState, adam_step
from deskseq.params import ParameterStore

from conftest import (arena_gradients, mul, reference_adam_step, reference_backward, slot,
                      sum_all)

TINY = M.ModelConfig(encoder_layers=1, d_model=8, d_ffn=16, heads=2, vocab_size=16,
                     max_positions=8)


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


def _signed_values(rng, shape):
    """Normals with exact +0.0 and -0.0 entries mixed in."""
    x = rng.normal(size=shape)
    pick = rng.integers(0, 4, size=shape)
    return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, x))


def _same_state(store, ref, state, ref_state):
    assert store.names() == ref.names() and store.tie_groups() == ref.tie_groups()
    for n in store.names():
        assert _bytes(store[n].data) == _bytes(ref[n].data), n
    assert sorted(state.slots) == sorted(ref_state.slots)
    for owner, s in state.slots.items():
        r = ref_state.slots[owner]
        assert s["t"] == r["t"], owner
        assert _bytes(s["m"]) == _bytes(r["m"]) and _bytes(s["v"]) == _bytes(r["v"]), owner


def _per_owner_update(store, grads, state, lr, weight_decay):
    """`optim._update` over each owner's whole value, one owner at a time in
    sorted order, on copies laid out flat: no arena, no runs, no chunks."""
    for owner in sorted(grads):
        p = store[owner]
        s = slot(state, owner, p.data.shape)
        s["t"] += 1
        flat = [np.array(x, dtype=float).reshape(-1)
                for x in (p.data, grads[owner], s["m"], s["v"])]
        n = flat[0].size
        O._update(*flat, np.empty(n), np.empty(n), s["t"], lr, weight_decay)
        p.data, s["m"], s["v"] = (x.reshape(p.data.shape) for x in flat[:1] + flat[2:])


shapes = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31 - 1),
       weight_decay=st.sampled_from([0.0, 0.1]), chunk=st.sampled_from([3, 16, O._CHUNK]))
def test_adam_step_equals_the_per_owner_reference_bit_for_bit(data, seed, weight_decay, chunk):
    """Random owner shapes and tie groups; per step, each owner frozen until
    a drawn step (so its `t` restarts behind the others), reached or not, and
    its gradient handed over as its arena slice.  A drawn step saves and
    reloads the store and its optimizer state.  The reference runs the same
    kernel per owner, unchunked: the arena's runs and chunks change no bit."""
    rng = np.random.default_rng(seed)
    owner_shapes = data.draw(st.lists(shapes, min_size=1, max_size=6))
    store, ref = ParameterStore(), ParameterStore()
    for k, shape in enumerate(owner_shapes):
        value = _signed_values(rng, shape)
        store.add(f"p{k}", value.copy())
        ref.add(f"p{k}", value.copy())
    for j, k in enumerate(data.draw(st.lists(st.integers(0, len(owner_shapes) - 1),
                                             max_size=2))):
        for s in (store, ref):  # "a" sorts first: the alias becomes the owner
            s.tie(f"{'a' if j else 'z'}{j}", f"p{k}")
    owners = [o for o, _ in store.unique_items()]
    frozen_until = {o: data.draw(st.integers(0, 3)) for o in owners}
    steps = data.draw(st.integers(1, 4))
    reload_at = data.draw(st.integers(0, steps))
    state, ref_state = OptimState(), OptimState()
    with mock.patch.object(O, "_CHUNK", chunk), tempfile.TemporaryDirectory() as tmp:
        for step in range(steps):
            if step == reload_at:
                C.save(tmp + "/ck", TINY, store, opt_state=state)
                _, store, _, state = C.load(tmp + "/ck")
            for o in owners:
                for s in (store, ref):
                    s.set_trainable(o, step >= frozen_until[o])
            reached = [o for o in owners
                       if step >= frozen_until[o] and data.draw(st.booleans())]
            grads = {o: _signed_values(rng, store[o].data.shape) for o in reached}
            adam_step(store, arena_gradients(store, grads), state, 1e-2, weight_decay)
            _per_owner_update(ref, grads, ref_state, 1e-2, weight_decay)
            _same_state(store, ref, state, ref_state)


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_adam_step_is_the_textbook_adamw_within_its_rounding_bound(rng, weight_decay):
    """Eight steps of `adam_step` against `conftest.reference_adam_step`, the
    textbook formula, within a bound derived from float64 rounding alone.

    Both sides compute, from the same float constants (b1, b2, 1 - b1, 1 - b2,
    eps, lr, wd, c1 = 1 - b1^t, c2 = 1 - b2^t), the same exact-arithmetic m,
    v and p.  A rounding is at most U = 2^-53 relative to its result; a daxpy
    counts as two (fused, it rounds once).  To first order in U, each side is
    within E of exact arithmetic, element by element, where ' marks the step
    before:

    - m: 3 roundings (b1 m', (1 - b1) g, the sum), each at most U times
      M = b1 |m'| + (1 - b1) |g|:  E_m = b1 E_m' + 3 U M.
    - v: 4 roundings (g g, its scaling, b2 v', the sum) of terms no larger
      than v:  E_v = b2 E_v' + 4 U v.
    - p = (1 - lr wd) p' - S, with S = k m / D, k = lr sqrt(c2) / c1 and
      D = sqrt(v) + eps sqrt(c2).  E_m moves S by k E_m / D; E_v moves sqrt(v),
      so D, by at most E_v / (2 v) relative.  Then come at most 13 roundings,
      each at most U times |S|, |p'| or |p|: the folded side's 4 in D, 1
      division, 3 in k, 2 in the daxpy and 3 in the decay (the textbook
      side's are 9):  E_p = (1 - lr wd) E_p' + k (E_m + |m| E_v / (2 v)) / D
      + 13 U (|S| + |p'| + |p|).

    The two sides then differ by at most 2 E.  The U^2 terms left out are
    O(t U) relative to those kept, so a 1% margin covers them."""
    lr, u, margin = 1e-2, np.finfo(float).eps / 2, 2 * 1.01
    store, ref = ParameterStore(), ParameterStore()
    for k, shape in enumerate([(3, 4), (5,), (2, 2, 3)]):
        value = rng.normal(size=shape)
        store.add(f"p{k}", value.copy())
        ref.add(f"p{k}", value.copy())
    state, ref_state = OptimState(), OptimState()
    e_m, e_v, e_p = ({o: 0.0 for o in store.names()} for _ in range(3))
    for t in range(1, 9):
        grads = {o: rng.normal(size=store[o].data.shape) for o in store.names()}
        before = {o: (ref[o].data, ref_state.slots[o]["m"] if t > 1 else 0.0) for o in grads}
        adam_step(store, arena_gradients(store, grads), state, lr, weight_decay)
        reference_adam_step(ref, grads, ref_state, lr, weight_decay)
        k = lr * np.sqrt(1.0 - O.BETA2 ** t) / (1.0 - O.BETA1 ** t)
        for o, g in grads.items():
            p_prev, m_prev = before[o]
            p, m, v = ref[o].data, ref_state.slots[o]["m"], ref_state.slots[o]["v"]
            d = np.sqrt(v) + O.EPS * np.sqrt(1.0 - O.BETA2 ** t)
            e_m[o] = O.BETA1 * e_m[o] + 3 * u * (O.BETA1 * abs(m_prev) + (1.0 - O.BETA1) * abs(g))
            e_v[o] = O.BETA2 * e_v[o] + 4 * u * v
            e_p[o] = ((1.0 - lr * weight_decay) * e_p[o]
                      + k * (e_m[o] + abs(m) * e_v[o] / (2 * v)) / d
                      + 13 * u * (k * abs(m) / d + abs(p_prev) + abs(p)))
            s = state.slots[o]
            for name, new, old, e in (("m", s["m"], m, e_m[o]), ("v", s["v"], v, e_v[o]),
                                      ("p", store[o].data, p, e_p[o])):
                assert np.all(abs(new - old) <= margin * e), (o, t, name)


@pytest.mark.parametrize("operand", [np.ones(16)[::2], np.ones(8)[::-1],
                                     np.ones(8, dtype=np.float32), np.ones((2, 4))])
@pytest.mark.parametrize("name", ["p", "m", "v"])
def test_a_blas_operand_that_f2py_would_copy_is_refused(name, operand):
    """f2py hands `dscal`/`daxpy` a copy of an operand that is not a 1-D
    contiguous float64 array, and leaves the original as it was: `_update`
    refuses it rather than lose the update without a word."""
    arrays = {k: np.ones(8) for k in "pgmv"} | {name: operand}
    with pytest.raises(TypeError, match="1-D contiguous float64"):
        O._update(*arrays.values(), np.empty(8), np.empty(8), 1, 1e-2, 0.1)


def test_unfrozen_owner_restarts_its_step_count_in_its_own_run():
    store = ParameterStore()
    for n in ("a", "b", "c"):
        store.add(n, np.ones(3))
    state, g = OptimState(), {n: np.full(3, 0.5) for n in "abc"}
    store.set_trainable("b", False)
    for _ in range(2):
        adam_step(store, arena_gradients(store, {n: g[n] for n in "ac"}), state, 1e-2, 0.0)
    store.set_trainable("b", True)
    adam_step(store, arena_gradients(store, g), state, 1e-2, 0.0)
    assert [state.slots[n]["t"] for n in "abc"] == [3, 1, 3]
    assert store["a"].data.tobytes() == store["c"].data.tobytes()
    assert store["b"].data.tobytes() != store["a"].data.tobytes()


def test_a_gradient_that_is_not_a_trainable_owners_arena_slice_changes_no_state():
    """A copy of an owner's slice, an array of another shape, a frozen
    owner's slice and an unknown owner: each is refused before any value,
    moment or step count changes, so the owners ahead of it keep theirs."""
    store = ParameterStore()
    for n in ("a", "b", "c", "d"):
        store.add(n, np.ones(3))
    store.set_trainable("d", False)
    state = OptimState()
    adam_step(store, arena_gradients(store, {n: np.full(3, 0.5) for n in "abc"}), state,
              1e-2, 0.0)
    arena = store.arena()
    slices = arena_gradients(store, {n: np.full(3, 0.25) for n in "abcd"})
    ahead = {n: slices[n] for n in "ab"}
    before = (arena.data.copy(), arena.grad.copy(),
              {n: (s["t"], s["m"].copy(), s["v"].copy()) for n, s in state.slots.items()})
    for wrong in ({"c": slices["c"].copy()}, {"c": np.zeros(2)}, {"d": slices["d"]},
                  {"e": np.zeros(3)}):
        with pytest.raises(ValueError, match="gradient map mismatch"):
            adam_step(store, ahead | wrong, state, 1e-2, 0.0)
        assert _bytes(arena.data) == _bytes(before[0]) and _bytes(arena.grad) == _bytes(before[1])
        for n, (t, m, v) in before[2].items():
            s = state.slots[n]
            assert s["t"] == t and _bytes(s["m"]) == _bytes(m) and _bytes(s["v"]) == _bytes(v)
    adam_step(store, ahead | {"c": slices["c"]}, state, 1e-2, 0.0)  # the slices themselves
    assert [state.slots[n]["t"] for n in "abc"] == [2, 2, 2]


# ---------------------------------------------------------------------------
# gradients written into the arena


def _leaf_pair(rng, shape):
    """The same values as a store parameter (arena-backed) and a bare leaf."""
    store = ParameterStore()
    w = store.add("w", rng.normal(size=shape))
    store.zero_grad()  # builds the arena: `w` now has a gradient slice
    return store, w, Tensor(w.data.copy(), requires_grad=True)


def _leaf_grads(build, leaves):
    """Per leaf, its gradient from `build(leaf)` by `backward`, then by the
    reference."""
    out = []
    for leaf in leaves:
        ag.backward(build(leaf))
        new = leaf.grad.copy()
        leaf.grad = None
        reference_backward(build(leaf))
        out.append((new, leaf.grad.copy()))
        leaf.grad = None
    return out


def test_fan_in_of_three_or_more_sums_in_tape_order(rng):
    _, w, bare = _leaf_pair(rng, (3, 4))
    xs = [Tensor(rng.normal(size=(2, 4)) * 10.0 ** k) for k in range(4)]
    bs = [Tensor(rng.normal(size=3)) for _ in xs]

    def build(leaf):
        out = ag.linear(xs[0], leaf, bs[0])
        for x, b in zip(xs[1:], bs[1:]):
            out = ag.add(out, ag.linear(x, leaf, b))
        return sum_all(out)

    for new, old in _leaf_grads(build, [w, bare]):
        assert new.tobytes() == old.tobytes()


def test_all_negative_zero_contributions_give_positive_zero(rng):
    _, w, bare = _leaf_pair(rng, (2, 3))
    c = Tensor(np.full((2, 3), -0.0))

    def build(leaf):  # each of the three contributions is g * -0.0 = -0.0
        return sum_all(ag.add(ag.add(mul(leaf, c), mul(leaf, c)), mul(leaf, c)))

    for new, old in _leaf_grads(build, [w, bare]):
        assert not np.signbit(new).any() and new.tobytes() == old.tobytes()


def test_a_transposed_contribution_is_summed_in_the_parameter_layout(rng):
    _, w, bare = _leaf_pair(rng, (3, 5))
    c, d = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(3, 5)))

    def build(leaf):  # transpose's backward hands back a transposed view
        inner = ag.scale(leaf, 1.5)  # an inner node gets one too
        return ag.add(sum_all(ag.add(mul(ag.transpose(leaf), c), mul(ag.transpose(inner), c))),
                      sum_all(mul(leaf, d)))

    for new, old in _leaf_grads(build, [w, bare]):
        assert new.tobytes() == old.tobytes() and new.flags.c_contiguous


def test_a_leaf_laid_out_transposed_keeps_its_layout(rng):
    """A bare leaf whose data is not C-ordered: its gradient is laid out as
    `np.zeros_like(data)` and holds the bytes of zeros, then `+=`."""
    leaf = Tensor(_signed_values(rng, (5, 3)).T, requires_grad=True)
    assert not leaf.data.flags.c_contiguous
    c, d = Tensor(_signed_values(rng, (3, 5))), Tensor(rng.normal(size=(5, 3)))

    def build(l):  # a C-ordered first contribution, then a transposed view
        return ag.add(sum_all(mul(l, c)), sum_all(mul(ag.transpose(l), d)))

    grads = []
    for run in (ag.backward, reference_backward):
        leaf.grad = None
        run(build(leaf))
        grads.append(leaf.grad)
    new, old = grads
    assert new.strides == old.strides == leaf.data.strides
    assert new.tobytes("A") == old.tobytes("A")


def test_an_adopted_gradient_shared_by_two_parents_is_not_written_to(rng):
    w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 3)))
    x = ag.scale(w, 1.0)
    y = ag.add(x, x)  # add's backward hands both parents the same array
    received = {}  # backward releases inner gradients: observe them in the closures
    for name, node in (("y", y), ("x", x)):
        def spy(g, name=name, closure=node._backward):
            received[name] = g
            return closure(g)
        node._backward = spy
    ag.backward(sum_all(mul(y, c)))
    np.testing.assert_array_equal(received["y"], c.data)  # x adopted it: never written to
    np.testing.assert_array_equal(received["x"], 2.0 * c.data)
    np.testing.assert_array_equal(w.grad, 2.0 * c.data)


_GRAPH_OPS = {  # (a, b, [2, 3] w, [3, 3] m, [3] v, dropout rng) -> a [2, 3] node
    "add": lambda a, b, w, m, v, r: ag.add(a, b),
    "mul": lambda a, b, w, m, v, r: mul(a, b),
    "scale": lambda a, b, w, m, v, r: ag.scale(a, -1.5),
    "gelu": lambda a, b, w, m, v, r: ag.gelu(a),
    "softmax": lambda a, b, w, m, v, r: ag.softmax(a),
    "layer_norm": lambda a, b, w, m, v, r: ag.layer_norm(a, v, v),
    "linear": lambda a, b, w, m, v, r: ag.linear(a, m, v),
    "transpose": lambda a, b, w, m, v, r: ag.reshape(ag.transpose(a), (2, 3)),
    "dropout": lambda a, b, w, m, v, r: ag.dropout(a, 0.5, r),
    "leaf": lambda a, b, w, m, v, r: w,
}


def _random_graph(ops, leaves, c, seed):
    """A scalar loss over `leaves` built by `ops`: each (name, i, j) applies
    `_GRAPH_OPS[name]` to earlier nodes i and j, so nodes fan out and in."""
    r = np.random.default_rng(seed)
    nodes = [leaves[0]]
    for name, i, j in ops:
        nodes.append(_GRAPH_OPS[name](nodes[i % len(nodes)], nodes[j % len(nodes)], *leaves, r))
    return sum_all(mul(ag.add(nodes[-1], nodes[len(nodes) // 2]), c))


def _inner_nodes(loss):
    """The recorded nodes reachable from `loss`."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if t._backward is not None and id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(sorted(_GRAPH_OPS)), st.integers(0, 15),
                              st.integers(0, 15)), max_size=12),
       seed=st.integers(0, 2**31 - 1))
@example(ops=[("add", 0, 0), ("add", 1, 0)], seed=0)  # an adopted array shared, then summed into
def test_backward_consumes_the_tape_and_leaves_the_reference_leaf_gradients(ops, seed):
    """On random op graphs, each side on its own fresh graph: the leaves (a
    store parameter and two bare tensors) get the reference's gradient bytes,
    no reached inner node keeps a closure, parent links or a gradient, and a
    second backward over the consumed tape raises."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    leaves = [store.add("w", _signed_values(rng, (2, 3))),
              Tensor(rng.normal(size=(3, 3)), requires_grad=True),
              Tensor(rng.normal(size=3), requires_grad=True)]
    c = Tensor(_signed_values(rng, (2, 3)))
    grads = []
    for run in (reference_backward, ag.backward):
        store.zero_grad()
        leaves[1].grad = leaves[2].grad = None
        loss = _random_graph(ops, leaves, c, seed)
        inner = _inner_nodes(loss)
        run(loss)
        grads.append([None if t.grad is None else t.grad.tobytes() for t in leaves])
    assert grads[0] == grads[1]
    assert loss in inner
    for t in inner:
        assert t._backward is None and t._parents is None and t.grad is None
    with pytest.raises(RuntimeError, match="consumed"):
        ag.backward(loss)


def test_an_output_no_closure_saved_dies_with_the_callers_reference(rng):
    """Tape nodes link to nodes, not to values: the data of a `dropout`
    output, of a residual `add` and of the logits, which no closure saves,
    is freed once the caller drops them while the loss's tape lives, and
    backward still gives the reference's leaf gradient bytes."""
    x = Tensor(_signed_values(rng, (2, 3, 4)), requires_grad=True)
    w, v = Tensor(rng.normal(size=(4, 4)), requires_grad=True), Tensor(rng.normal(size=4))
    labels = np.array([1, IGNORE, 0, 3, IGNORE, 2])

    def build():
        d = ag.dropout(ag.linear(x, w), 0.5, np.random.default_rng(1))
        r = ag.add(x, d)
        logits = ag.reshape(ag.layer_norm(r, v, v), (-1, 4))
        return ag.softmax_cross_entropy(logits, labels), (d, r, logits)

    loss, outputs = build()
    refs = [weakref.ref(t.data) for t in outputs]
    del outputs
    assert [ref() for ref in refs] == [None] * 3
    assert loss._backward is not None
    ag.backward(loss)
    new = [x.grad.tobytes(), w.grad.tobytes()]
    x.grad = w.grad = None
    reference_backward(build()[0])
    assert new == [x.grad.tobytes(), w.grad.tobytes()]


@pytest.mark.parametrize("objective", ["mlm", "denoise"])
def test_the_encoder_states_before_the_last_are_dead_when_the_loss_is_built(rng, monkeypatch,
                                                                          objective):
    """The MLM head and standard cross-attention read only the last encoder
    state, through the final LN.  No closure saves the states before it, so
    none is alive by the time the loss is built."""
    cfg = M.ModelConfig(encoder_layers=2, decoder_layers=1, d_model=8, d_ffn=16, heads=2,
                        vocab_size=16, max_positions=8, dropout=0.1)
    encoder_forward, cross_entropy = M.encoder_forward, ag.softmax_cross_entropy
    refs, alive = [], []

    def keeping_refs(*args, **kwargs):
        states = encoder_forward(*args, **kwargs)
        refs.extend(weakref.ref(s.data) for s in states[:-1])
        return states

    def checking(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return cross_entropy(*args, **kwargs)

    monkeypatch.setattr(M, "encoder_forward", keeping_refs)
    monkeypatch.setattr(ag, "softmax_cross_entropy", checking)
    tokens = rng.integers(6, 16, size=(2, 5))
    drop = np.random.default_rng(0)
    if objective == "mlm":
        enc_cfg = replace(cfg, decoder_layers=0)
        loss = T.mlm_step_loss(enc_cfg, M.init_mlm_encoder(enc_cfg, 0), tokens, tokens,
                               tokens > 0, train_rng=drop)
    else:
        pairs = [(row.tolist(), row[:3].tolist()) for row in tokens]
        loss = T.denoise_step_loss(cfg, M.init_seq2seq(cfg, 0), *T.pad_pairs(pairs),
                                   train_rng=drop)
    assert alive == [[False, False]]
    ag.backward(loss)


def test_a_wrapper_assigned_to_an_outputs_backward_runs_exactly_once(rng):
    """The contract perfbench's tracing relies on: backward runs what was
    assigned to an op output's `_backward`, once, with the output's gradient.
    A leaf has no closure to wrap."""
    x, w, b = (Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((2, 3, 4), (5, 4), (5,)))
    c = Tensor(rng.normal(size=(2, 3, 5)))
    out = ag.linear(x, w, b)
    closure, received = out._backward, []

    def wrapper(g):
        received.append(g.copy())
        return closure(g)

    out._backward = wrapper
    assert out._backward is wrapper
    ag.backward(sum_all(mul(out, c)))
    assert len(received) == 1 and received[0].tobytes() == c.data.tobytes()
    with pytest.raises(AttributeError, match="op output"):
        x._backward = wrapper


def test_backward_writes_each_reached_owner_into_its_arena_slice(rng):
    store = M.init_mlm_encoder(TINY, 0)
    tokens = rng.integers(6, TINY.vocab_size, size=(2, 5))
    store.zero_grad()
    ag.backward(T.mlm_step_loss(TINY, store, tokens, tokens, tokens != 0))
    arena = store.arena()
    reached = store.gradient_map()
    assert reached
    for owner, g in reached.items():
        assert g is arena.homes[arena.owners.index(owner)]


# ---------------------------------------------------------------------------
# arena safety


def _train_once(store, rng):
    tokens = rng.integers(6, TINY.vocab_size, size=(2, 5))
    opt = OptimState()
    T.train_step(store, T.mlm_step_loss(TINY, store, tokens, tokens, tokens != 0), opt, 1e-2,
                 0.0, "step")
    return opt


def test_a_copy_shares_no_memory_for_data_gradients_or_moments(rng):
    store = M.init_mlm_encoder(TINY, 0)
    opt = _train_once(store, np.random.default_rng(0))
    clone = store.copy()
    assert clone.tie_groups() == store.tie_groups() == [["embed.tok", "mlm_head.w"]]
    clone_opt = _train_once(clone, np.random.default_rng(1))
    a, b = store.arena(), clone.arena()
    assert not np.shares_memory(a.data, b.data) and not np.shares_memory(a.grad, b.grad)
    for owner in store.names():
        assert not np.shares_memory(store[owner].data, clone[owner].data)
    for owner, s in opt.slots.items():
        for k in ("m", "v"):
            assert not np.shares_memory(s[k], clone_opt.slots[owner][k])
    assert store["enc.0.ffn.w1"].data.tobytes() != clone["enc.0.ffn.w1"].data.tobytes()


def test_rebound_data_is_copied_back_into_the_arena(rng):
    store = M.init_mlm_encoder(TINY, 0)
    _train_once(store, rng)
    t = store["enc.0.ffn.b1"]
    t.data = np.full(t.data.shape, 0.25)
    opt = _train_once(store, rng)
    assert "enc.0.ffn.b1" in opt.slots
    arena = store.arena()
    i = arena.owners.index("enc.0.ffn.b1")
    assert t.data is arena.views[i] and np.shares_memory(t.data, arena.data)
    assert not np.all(t.data == 0.25)  # the step moved the rebound value in place
    with pytest.raises(ValueError, match="enc.0.ffn.b1 must stay float64"):
        t.data = t.data.astype(np.float32)
        store.zero_grad()
    t.data = np.zeros(3)
    with pytest.raises(ValueError, match="must stay float64"):
        store.arena()


def test_attach_head_then_finetuning_updates_the_head(rng):
    store = M.init_mlm_encoder(TINY, 0)
    spec = M.HeadSpec(kind="classification", label_count=2, hidden=[4])
    items = [(list(rng.integers(6, TINY.vocab_size, size=4)), int(k % 2)) for k in range(16)]
    fcfg = E.FinetuneConfig(peak_lr=1e-2, warmup_steps=1, batch_size=4, epochs=2,
                            head_hidden=[4])
    best, record = E.finetune_classifier(TINY, store, spec, items[:12], items[12:], fcfg, 3)
    fresh = M.attach_head(store, spec, TINY.d_model, 3)
    assert record["updates"] > 0
    for n in ("head.0.w", "head.out.w", "head.out.b"):
        assert best[n].data.tobytes() != fresh[n].data.tobytes(), n
    for n in ("embed.tok", "embed.pos"):  # frozen by the default freeze set
        assert best[n].data.tobytes() == store[n].data.tobytes(), n
