"""The parameter arena: AdamW over it equals the per-owner update bit for bit,
`backward` writes gradients into it as zeros-then-`+=` would, and a store,
its copy and their optimizer states share no memory."""

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskseq import autograd as ag
from deskseq import checkpoint as C
from deskseq import evalft as E
from deskseq import model as M
from deskseq import optim as O
from deskseq import train as T
from deskseq.autograd import Tensor
from deskseq.optim import OptimState, adam_step
from deskseq.params import ParameterStore

from conftest import mul, reference_adam_step, reference_backward, sum_all

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


shapes = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31 - 1),
       weight_decay=st.sampled_from([0.0, 0.1]), chunk=st.sampled_from([3, 16, O._CHUNK]))
def test_adam_step_equals_the_per_owner_reference_bit_for_bit(data, seed, weight_decay, chunk):
    """Random owner shapes and tie groups; per step, each owner frozen until
    a drawn step (so its `t` restarts behind the others), reached or not, and
    its gradient handed over as its arena slice or as an array of its own.
    A drawn step saves and reloads the store and its optimizer state."""
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
            mine = dict(grads)
            if data.draw(st.booleans()):  # as `backward` leaves them: in the arena
                arena = store.arena()
                for o in reached:
                    home = arena.homes[arena.owners.index(o)]
                    home[...] = grads[o]
                    mine[o] = home
            adam_step(store, mine, state, 1e-2, weight_decay)
            reference_adam_step(ref, grads, ref_state, 1e-2, weight_decay)
            _same_state(store, ref, state, ref_state)


def test_unfrozen_owner_restarts_its_step_count_in_its_own_run():
    store = ParameterStore()
    for n in ("a", "b", "c"):
        store.add(n, np.ones(3))
    state, g = OptimState(), {n: np.full(3, 0.5) for n in "abc"}
    store.set_trainable("b", False)
    for _ in range(2):
        adam_step(store, {n: g[n] for n in "ac"}, state, 1e-2, 0.0)
    store.set_trainable("b", True)
    adam_step(store, g, state, 1e-2, 0.0)
    assert [state.slots[n]["t"] for n in "abc"] == [3, 1, 3]
    assert store["a"].data.tobytes() == store["c"].data.tobytes()
    assert store["b"].data.tobytes() != store["a"].data.tobytes()


def test_a_misshapen_gradient_changes_no_state():
    """The shape check runs before any owner's gradient, slot or step count
    changes, so the owners ahead of the misshapen one keep theirs."""
    store = ParameterStore()
    for n in ("a", "b", "c"):
        store.add(n, np.ones(3))
    state = OptimState()
    adam_step(store, {n: np.full(3, 0.5) for n in "abc"}, state, 1e-2, 0.0)
    arena = store.arena()
    before = (arena.data.copy(), arena.grad.copy(),
              {n: (s["t"], s["m"].copy(), s["v"].copy()) for n, s in state.slots.items()})
    with pytest.raises(ValueError, match="gradient shape \\(2,\\) does not match parameter c"):
        adam_step(store, {"a": np.full(3, 0.25), "b": np.full(3, 0.25), "c": np.zeros(2)},
                  state, 1e-2, 0.0)
    assert _bytes(arena.data) == _bytes(before[0]) and _bytes(arena.grad) == _bytes(before[1])
    for n, (t, m, v) in before[2].items():
        s = state.slots[n]
        assert s["t"] == t and _bytes(s["m"]) == _bytes(m) and _bytes(s["v"]) == _bytes(v)


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


def test_an_adopted_gradient_shared_by_two_parents_is_not_written_to(rng):
    w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 3)))
    x = ag.scale(w, 1.0)
    y = ag.add(x, x)  # add's backward hands both parents the same array
    ag.backward(sum_all(mul(y, c)))
    np.testing.assert_array_equal(y.grad, c.data)
    np.testing.assert_array_equal(x.grad, 2.0 * c.data)
    np.testing.assert_array_equal(w.grad, 2.0 * c.data)


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
