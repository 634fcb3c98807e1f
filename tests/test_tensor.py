"""Tensor kernel: op oracles, gradient checks, and the optimizer contract."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from deskseq import autograd as ag
from deskseq import model as M
from deskseq.autograd import IGNORE, ShapeError, Tensor
from deskseq.optim import OptimState, adam_step
from deskseq.params import ParameterStore

from conftest import (arena_gradients, composed_attention, composed_linear, finite_diff_check,
                      mul, rel_err, square, sum_all)


class TestNoGrad:
    def test_ops_record_no_tape(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with ag.no_grad():
            out = ag.softmax(ag.add(ag.matmul(w, w), w))
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
        taped = ag.matmul(w, w)
        assert taped.requires_grad and taped._backward is not None

    def test_nests_and_restores_the_outer_mode(self):
        assert ag.grad_enabled()
        with ag.no_grad():
            with ag.no_grad():
                assert not ag.grad_enabled()
            assert not ag.grad_enabled()
        assert ag.grad_enabled()

    def test_mode_restored_after_an_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with ag.no_grad():
                raise RuntimeError("boom")
        assert ag.grad_enabled()
        w = Tensor(np.ones(3), requires_grad=True)
        assert ag.scale(w, 2.0)._backward is not None


class TestMatmul:
    def test_identity(self):
        a = np.arange(8.0).reshape(2, 4)
        out = ag.matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_zero(self):
        out = ag.matmul(Tensor(np.zeros((3, 2))), Tensor(np.ones((2, 5))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 5)))

    def test_matches_triple_loop(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        # independent oracle: naive triple loop
        expect = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    expect[i, j] += a[i, k] * b[k, j]
        out = ag.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def _linear_operands(seed, lead, d_in, d_out):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(*lead, d_in)), requires_grad=True),
            Tensor(rng.normal(size=(d_out, d_in)), requires_grad=True),
            Tensor(rng.normal(size=d_out), requires_grad=True),
            rng.normal(size=(*lead, d_out)))


class TestLinear:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lead=st.lists(st.integers(1, 5), min_size=1, max_size=2),
           d_in=st.integers(1, 9), d_out=st.integers(1, 9))
    def test_output_and_gradients_equal_the_composed_chain_bit_for_bit(
            self, seed, lead, d_in, d_out):
        """2-D and 3-D inputs: one node gives the bytes of the 2-D chain reshape ->
        matmul -> add -> reshape."""
        results = []
        for project in (ag.linear, composed_linear):
            x, w, b, weights = _linear_operands(seed, lead, d_in, d_out)
            out = project(x, w, b)
            ag.backward(sum_all(mul(out, Tensor(weights))))
            results.append([t.tobytes() for t in (out.data, x.grad, w.grad, b.grad)])
        assert results[0] == results[1]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lead=st.lists(st.integers(1, 5), min_size=1, max_size=2),
           d_in=st.integers(1, 9), d_out=st.integers(1, 9))
    def test_without_a_bias_equals_the_chain_without_the_add_bit_for_bit(
            self, seed, lead, d_in, d_out):
        """b=None: the bytes of reshape -> matmul -> reshape, one node with
        parents (x, w), and a backward that returns None for the bias."""
        x, w, _, weights = _linear_operands(seed, lead, d_in, d_out)
        out = ag.linear(x, w)
        assert out._parents == (x, w) and out._backward(weights)[2] is None
        results = []
        for project in (ag.linear, composed_linear):
            x, w, _, weights = _linear_operands(seed, lead, d_in, d_out)
            out = project(x, w)
            ag.backward(sum_all(mul(out, Tensor(weights))))
            results.append([t.tobytes() for t in (out.data, x.grad, w.grad)])
        assert results[0] == results[1]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lead=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           d_in=st.integers(1, 40), d_out=st.integers(1, 9))
    @example(seed=0, lead=[3, 1], d_in=8, d_out=4)  # per-item 1-row GEMMs give other bytes
    def test_leading_axes_fold_into_rows_bit_for_bit(self, seed, lead, d_in, d_out):
        """[*lead, d_in] gives the bytes of the same rows as [prod(lead), d_in]:
        one GEMM over all rows, forward and backward, whatever the lead axes."""
        results = []
        for shape in (tuple(lead), (int(np.prod(lead)),)):
            x, w, b, weights = _linear_operands(seed, shape, d_in, d_out)
            out = ag.linear(x, w, b)
            ag.backward(sum_all(mul(out, Tensor(weights))))
            results.append([t.tobytes() for t in (out.data, x.grad, w.grad, b.grad)])
        assert results[0] == results[1]

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    def test_finite_difference(self, rng, lead):
        x, w, b, _ = _linear_operands(int(rng.integers(1000)), lead, 5, 3)
        finite_diff_check(lambda: sum_all(square(ag.linear(x, w, b))), [x, w, b], rng)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape, match", [
        ((2, 4), (3,), (3,), "weight must be 2-D"),
        ((2, 4), (3, 4, 1), (3,), "weight must be 2-D"),
        ((2, 4), (3, 4), (4,), "bias"),
        ((2, 4), (3, 4), (1, 3), "bias"),
        ((4,), (3, 4), (3,), "input"),
        ((2, 5), (3, 4), (3,), "input"),
        ((2, 2, 3), (3, 4), (3,), "input"),
    ])
    def test_each_mismatched_operand_raises(self, x_shape, w_shape, b_shape, match):
        with pytest.raises(ShapeError, match=match):
            ag.linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)),
                      Tensor(np.ones(b_shape)))

    def test_records_one_node_and_none_under_no_grad(self, rng):
        x, w, b, _ = _linear_operands(0, (2, 3), 4, 5)
        out = ag.linear(x, w, b)
        assert out._parents == (x, w, b)
        assert all(p._backward is None for p in out._parents)
        with ag.no_grad():
            out = ag.linear(x, w, b)
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
        np.testing.assert_array_equal(out.data, composed_linear(x, w, b).data)

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    def test_an_operand_without_grad_gets_none_and_the_others_keep_their_bytes(self, frozen):
        operands = _linear_operands(1, (2, 3), 4, 5)
        out = ag.linear(*operands[:3])
        full = out._backward(operands[3])
        operands[frozen].requires_grad = False
        grads = out._backward(operands[3])
        for i, (g, ref) in enumerate(zip(grads, full)):
            assert g is None if i == frozen else g.tobytes() == ref.tobytes()


def _attention_operands(seed, batch, kv_batch, tq, tk, heads, hd):
    rng = np.random.default_rng(seed)
    d = heads * hd
    return (Tensor(rng.normal(size=(batch, tq, d)), requires_grad=True),
            Tensor(rng.normal(size=(kv_batch, tk, d)), requires_grad=True),
            Tensor(rng.normal(size=(kv_batch, tk, d)), requires_grad=True),
            rng.normal(size=(batch, tq, d)))


class TestAttention:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), heads=st.sampled_from([1, 2, 4]),
           hd=st.integers(1, 4), batch=st.integers(1, 3), kv_one=st.booleans(),
           tq=st.integers(1, 6), tk=st.integers(1, 6),
           mask_kind=st.sampled_from(["none", "pad", "causal"]))
    def test_output_and_gradients_equal_the_composed_chain_bit_for_bit(
            self, seed, heads, hd, batch, kv_one, tq, tk, mask_kind):
        """Pad masks [B,1,1,T], causal masks with a start offset (tq new
        queries after tk - tq cached keys) and batch-1 keys and values."""
        mask = None
        if mask_kind == "pad":
            real = np.random.default_rng(seed).random((batch, tk)) < 0.7
            real[:, 0] = True
            mask = M.pad_attention_mask(real)
        elif mask_kind == "causal":
            tq = min(tq, tk)
            mask = M.causal_mask(tq, tk - tq)
        results = []
        for attend in (ag.attention, composed_attention):
            q, k, v, weights = _attention_operands(seed, batch, 1 if kv_one else batch,
                                                   tq, tk, heads, hd)
            out = attend(q, k, v, heads, mask)
            ag.backward(sum_all(mul(out, Tensor(weights))))
            results.append([t.tobytes() for t in (out.data, q.grad, k.grad, v.grad)])
        assert results[0] == results[1]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), heads=st.sampled_from([1, 2, 4]),
           hd=st.integers(1, 4), batch=st.integers(1, 3), kv_one=st.booleans(),
           tq=st.integers(1, 6), tk=st.integers(1, 6), kind=st.sampled_from(["pad", "causal"]),
           zero_queries=st.booleans())
    def test_no_mask_equals_an_all_zero_mask_bit_for_bit(
            self, seed, heads, hd, batch, kv_one, tq, tk, kind, zero_queries):
        """`mask=None` against the two all-zero masks the model skips: the pad
        mask of a source without PAD, and the causal mask of one query after
        tk - 1 cached keys.  Signed zero queries make every score +-0, where
        adding a zero mask can flip a zero's sign."""
        if kind == "pad":
            mask = M.pad_attention_mask(np.ones((batch, tk), dtype=bool))
        else:
            tq = 1
            mask = M.causal_mask(1, tk - 1)
        assert not mask.any()
        results = []
        for m in (None, mask):
            q, k, v, weights = _attention_operands(seed, batch, 1 if kv_one else batch,
                                                   tq, tk, heads, hd)
            if zero_queries:
                q.data[...] = np.copysign(0.0, q.data)
            out = ag.attention(q, k, v, heads, m)
            ag.backward(sum_all(mul(out, Tensor(weights))))
            results.append([t.tobytes() for t in (out.data, q.grad, k.grad, v.grad)])
        assert results[0] == results[1]

    @pytest.mark.parametrize("kv_batch", [2, 1])
    def test_finite_difference(self, rng, kv_batch):
        q, k, v, _ = _attention_operands(3, 2, kv_batch, 3, 4, 2, 3)
        mask = M.causal_mask(3, 1)
        finite_diff_check(lambda: sum_all(square(ag.attention(q, k, v, 2, mask))),
                          [q, k, v], rng)

    @pytest.mark.parametrize("q_shape, kv_shapes, heads, match", [
        ((2, 3, 6), ((2, 4, 6), (2, 4, 6)), 4, "4 heads"),
        ((2, 3, 6), ((2, 4, 4), (2, 4, 4)), 2, "keys"),
        ((2, 3, 6), ((2, 4, 6), (2, 4, 4)), 2, "keys"),
        ((2, 3, 6), ((2, 4, 6), (2, 5, 6)), 2, "keys"),
        ((2, 3, 6), ((3, 4, 6), (3, 4, 6)), 2, "keys"),
        ((3, 6), ((4, 6), (4, 6)), 2, "queries"),
        pytest.param((2, 3, 6), ((2, 0, 6), (2, 0, 6)), 2,
                     r"zero keys \(2, 0, 6\) \(queries \(2, 3, 6\)\)", id="zero-keys"),
        pytest.param((1, 0, 6), ((1, 0, 6), (1, 0, 6)), 2, "zero keys", id="zero-keys-and-queries"),
    ])
    def test_mismatched_shapes_raise(self, q_shape, kv_shapes, heads, match):
        with pytest.raises(ShapeError, match=match):
            ag.attention(Tensor(np.ones(q_shape)), Tensor(np.ones(kv_shapes[0])),
                         Tensor(np.ones(kv_shapes[1])), heads)

    def test_records_one_node_and_none_under_no_grad(self):
        q, k, v, _ = _attention_operands(0, 2, 2, 3, 4, 2, 2)
        out = ag.attention(q, k, v, 2)
        assert out._parents == (q, k, v)
        with ag.no_grad():
            out = ag.attention(q, k, v, 2)
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
        np.testing.assert_array_equal(out.data, composed_attention(q, k, v, 2).data)

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    def test_an_operand_without_grad_gets_none_and_the_others_keep_their_bytes(self, frozen):
        operands = _attention_operands(2, 2, 1, 3, 4, 2, 2)
        out = ag.attention(*operands[:3], 2)
        full = out._backward(operands[3])
        operands[frozen].requires_grad = False
        grads = out._backward(operands[3])
        for i, (g, ref) in enumerate(zip(grads, full)):
            assert g is None if i == frozen else g.tobytes() == ref.tobytes()


class TestDropout:
    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_one_node_with_the_bytes_of_the_mul_chain(self, p):
        """Output and input gradient equal those of the input times the same
        keep mask as a `mul` node, bit for bit."""
        results = []
        for fused in (True, False):
            rng = np.random.default_rng(4)
            x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
            weights = Tensor(rng.normal(size=(3, 4, 5)))
            drop_rng = np.random.default_rng(7)
            if fused:
                out = ag.dropout(x, p, drop_rng)
                assert out._parents == (x,)
            else:
                keep = (drop_rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
                out = mul(x, Tensor(keep))
            ag.backward(sum_all(mul(out, weights)))
            results.append([out.data.tobytes(), x.grad.tobytes()])
        assert results[0] == results[1]

    def test_zero_p_returns_its_input(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        assert ag.dropout(x, 0.0, np.random.default_rng(0)) is x


class TestGelu:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.lists(st.integers(1, 9), min_size=1, max_size=3))
    def test_output_and_gradient_equal_the_formula_bit_for_bit(self, seed, shape):
        """The node saves only the slope, computed in forward: the output is
        `x * cdf` and the gradient `g * (cdf + x * pdf)`, byte for byte."""
        rng = np.random.default_rng(seed)
        x, g = rng.normal(size=shape) * 3.0, rng.normal(size=shape)
        cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
        out = ag.gelu(Tensor(x, requires_grad=True))
        (grad,) = out._backward(g)
        assert out.data.tobytes() == (x * cdf).tobytes()
        assert grad.tobytes() == (g * (cdf + x * pdf)).tobytes()

    def test_records_no_node_and_computes_no_slope_under_no_grad(self):
        x = Tensor(np.linspace(-3.0, 3.0, 7), requires_grad=True)
        with ag.no_grad(), mock.patch.object(ag.np, "exp", side_effect=AssertionError("slope")):
            out = ag.gelu(x)
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
        assert out.data.tobytes() == ag.gelu(x).data.tobytes()


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        x = Tensor(np.full((1, 3), 7.0))
        out = ag.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-9)

    def test_symmetric_unit_variance_fixed_point(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        out = ag.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        # unit variance, so each entry is +-1 / sqrt(1 + eps) with eps 1e-5
        np.testing.assert_allclose(out.data, [[1.0, -1.0]] / np.sqrt(1 + 1e-5), rtol=1e-12)

    def test_matches_scalar_formula(self, rng):
        x = rng.normal(size=(1, 8))
        g = rng.normal(size=8)
        b = rng.normal(size=8)
        eps = 1e-5
        mu = x[0].mean()
        var = ((x[0] - mu) ** 2).mean()
        expect = (x[0] - mu) / np.sqrt(var + eps) * g + b
        out = ag.layer_norm(Tensor(x), Tensor(g), Tensor(b))
        np.testing.assert_allclose(out.data[0], expect, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), offset=st.sampled_from([0.0, 5.0]))
    def test_forward_equals_the_np_mean_np_var_formula_bit_for_bit(
            self, seed, shape, scale, offset):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape) * scale + offset
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        mean = x.mean(axis=-1, keepdims=True)
        xhat = (x - mean) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5))
        out = ag.layer_norm(Tensor(x), Tensor(g), Tensor(b))
        assert out.data.tobytes() == (xhat * g + b).tobytes()


class TestNodesLeaveTheirOperands:
    """The in-place nodes work only in buffers they allocate: neither forward
    nor backward changes an input's data, a mask or the incoming gradient."""

    @staticmethod
    def _unchanged(arrays, call):
        before = [a.copy() for a in arrays]
        result = call()
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()
        return result

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), heads=st.sampled_from([1, 2, 4]),
           hd=st.integers(1, 3), batch=st.integers(1, 3), kv_one=st.booleans(),
           tq=st.integers(1, 5), tk=st.integers(1, 5),
           mask_kind=st.sampled_from(["none", "pad", "causal"]))
    @example(seed=0, heads=1, hd=2, batch=2, kv_one=True, tq=3, tk=4, mask_kind="pad")
    def test_attention(self, seed, heads, hd, batch, kv_one, tq, tk, mask_kind):
        """`heads == 1` included, where the context gradient is a view of the
        incoming one, and batch-1 keys and values."""
        mask = None
        if mask_kind == "pad":
            real = np.random.default_rng(seed).random((batch, tk)) < 0.7
            real[:, 0] = True
            mask = M.pad_attention_mask(real)
        elif mask_kind == "causal":
            tq = min(tq, tk)
            mask = M.causal_mask(tq, tk - tq)
        q, k, v, g = _attention_operands(seed, batch, 1 if kv_one else batch, tq, tk, heads, hd)
        arrays = [q.data, k.data, v.data, g] + ([] if mask is None else [mask])
        out = self._unchanged(arrays, lambda: ag.attention(q, k, v, heads, mask))
        grads = self._unchanged(arrays + [out.data], lambda: out._backward(g))
        assert [t.shape for t in grads] == [q.shape, k.shape, v.shape]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.lists(st.integers(1, 6), min_size=1, max_size=3))
    def test_softmax_and_layer_norm(self, seed, shape):
        rng = np.random.default_rng(seed)
        x, g = Tensor(rng.normal(size=shape), requires_grad=True), rng.normal(size=shape)
        out = self._unchanged([x.data, g], lambda: ag.softmax(x))
        self._unchanged([x.data, g, out.data], lambda: out._backward(g))
        gain = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        bias = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        arrays = [x.data, gain.data, bias.data, g]
        out = self._unchanged(arrays, lambda: ag.layer_norm(x, gain, bias))
        grads = self._unchanged(arrays + [out.data], lambda: out._backward(g))
        assert [t.shape for t in grads] == [x.shape, gain.shape, bias.shape]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.lists(st.integers(1, 6), min_size=0, max_size=3))
    @example(seed=0, shape=[])
    def test_gelu(self, seed, shape):
        """A 0-d input included: it gives a 0-d output and gradient."""
        rng = np.random.default_rng(seed)
        x = Tensor(np.asarray(rng.normal(size=shape) * 3.0), requires_grad=True)
        g = np.asarray(rng.normal(size=shape))
        out = self._unchanged([x.data, g], lambda: ag.gelu(x))
        (grad,) = self._unchanged([x.data, g, out.data], lambda: out._backward(g))
        assert out.shape == grad.shape == x.shape
        cdf = 0.5 * (1.0 + erf(x.data * (1.0 / np.sqrt(2.0))))
        assert out.data.tobytes() == np.asarray(x.data * cdf).tobytes()


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ag.softmax_cross_entropy(Tensor(np.zeros((3, 8))), np.array([0, 3, 7]))
        assert abs(loss.item() - np.log(8)) < 1e-12

    def test_certain_prediction_loss_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e4
        loss = ag.softmax_cross_entropy(Tensor(logits), np.array([2]))
        assert loss.item() < 1e-9

    def test_ignore_positions_match_enumeration(self, rng):
        logits = rng.normal(size=(5, 6))
        labels = np.array([2, IGNORE, 0, IGNORE, 5])
        # oracle: per-position NLL enumeration over the real subset
        expect = []
        for i, lab in enumerate(labels):
            if lab == IGNORE:
                continue
            z = logits[i] - logits[i].max()
            expect.append(-(z[lab] - np.log(np.exp(z).sum())))
        loss = ag.softmax_cross_entropy(Tensor(logits), labels)
        assert abs(loss.item() - np.mean(expect)) < 1e-12

    def test_all_ignore_is_zero_with_zero_grad(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        loss = ag.softmax_cross_entropy(t, np.array([IGNORE, IGNORE]))
        assert loss.item() == 0.0
        ag.backward(loss)
        np.testing.assert_array_equal(t.grad, np.zeros((2, 3)))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ag.softmax_cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), v=st.integers(1, 40),
           scored=st.sampled_from([0.0, 0.15, 0.5, 1.0]), g=st.sampled_from([1.0, -0.75]))
    def test_scoring_only_the_labelled_rows_keeps_the_whole_batch_bytes(
            self, seed, n, v, scored, g):
        """The loss and gradient bytes of normalizing every row, the scored
        ones picked afterwards: each row's reductions are its own.  Unscored
        rows get zeros times the scale (-0.0 under a negative gradient)."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, v)) * 5.0
        labels = np.where(rng.random(n) < scored, rng.integers(0, v, size=n), IGNORE)
        valid = labels != IGNORE
        z = x - x.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        ref_grad = np.zeros_like(x)
        if valid.any():
            ref_loss = np.asarray((-logp[valid, labels[valid]]).mean())
            ref_grad[valid] = np.exp(logp)[valid]
            ref_grad[valid, labels[valid]] -= 1.0
            ref_grad = ref_grad * (g / valid.sum())
        else:
            ref_loss = np.asarray(0.0)
        loss = ag.softmax_cross_entropy(Tensor(x, requires_grad=True), labels)
        (grad,) = loss._backward(np.asarray(g))
        assert loss.data.tobytes() == ref_loss.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_invariant_to_position_permutation(self, rng):
        logits = rng.normal(size=(6, 5))
        labels = np.array([1, IGNORE, 2, 4, IGNORE, 0])
        base = ag.softmax_cross_entropy(Tensor(logits), labels).item()
        for _ in range(5):
            perm = rng.permutation(6)
            v = ag.softmax_cross_entropy(Tensor(logits[perm]), labels[perm]).item()
            assert abs(v - base) < 1e-12


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        loss = sum_all(square(x))
        ag.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_backward_rejected(self):
        with pytest.raises(ShapeError):
            ag.backward(Tensor(np.ones(3), requires_grad=True))

    def test_frozen_parameter_receives_no_gradient(self):
        w = Tensor(np.ones((2, 2)), requires_grad=False)
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = sum_all(ag.matmul(x, w))
        ag.backward(loss)
        assert w.grad is None
        assert x.grad is not None

    @pytest.mark.parametrize("frozen", [0, 1])
    def test_add_gives_none_to_an_operand_without_grad(self, rng, frozen):
        """`linear`'s rule: the operand without grad forms no unused sum, and
        the other operand's gradient keeps its bytes (broadcast included)."""
        operands = [Tensor(rng.normal(size=(2, 3)), requires_grad=True),
                    Tensor(rng.normal(size=3), requires_grad=True)]
        g = rng.normal(size=(2, 3))
        out = ag.add(*operands)
        full = out._backward(g)
        operands[frozen].requires_grad = False
        grads = out._backward(g)
        for i, (got, ref) in enumerate(zip(grads, full)):
            assert got is None if i == frozen else got.tobytes() == ref.tobytes()

    def test_two_layer_mlp_finite_difference(self, rng):
        w1 = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b1 = Tensor(rng.normal(size=4), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b2 = Tensor(rng.normal(size=3), requires_grad=True)
        x = rng.normal(size=(5, 6))
        labels = rng.integers(0, 3, size=5)

        def make_loss():
            h = ag.gelu(ag.add(ag.matmul(Tensor(x), ag.transpose(w1)), b1))
            logits = ag.add(ag.matmul(h, ag.transpose(w2)), b2)
            return ag.softmax_cross_entropy(logits, labels)

        finite_diff_check(make_loss, [w1, b1, w2, b2], rng, samples_per_tensor=8)


@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_many_seeds(seed):
    """Finite-difference checks for every primitive on random shapes."""
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(2, 6, size=3)
    a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
    b = Tensor(rng.normal(size=(k, n)), requires_grad=True)
    finite_diff_check(lambda: sum_all(square(ag.matmul(a, b))), [a, b], rng)

    d = int(rng.integers(3, 8))
    x = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    g = Tensor(rng.normal(size=d), requires_grad=True)
    bias = Tensor(rng.normal(size=d), requires_grad=True)
    finite_diff_check(lambda: sum_all(square(ag.layer_norm(x, g, bias))),
                      [x, g, bias], rng)

    s = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    weights = Tensor(rng.normal(size=(2, 5)))
    finite_diff_check(lambda: sum_all(mul(ag.softmax(s), weights)), [s], rng)

    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    ids = rng.integers(0, 7, size=(2, 3))
    finite_diff_check(lambda: sum_all(square(ag.embedding(table, ids))),
                      [table], rng)

    ge = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    finite_diff_check(lambda: sum_all(square(ag.gelu(ge))), [ge], rng)

    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    labels = rng.integers(0, 5, size=4)
    labels[0] = IGNORE
    finite_diff_check(lambda: ag.softmax_cross_entropy(logits, labels), [logits], rng)

    states = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3)]
    mix_w = Tensor(rng.normal(size=3), requires_grad=True)
    finite_diff_check(
        lambda: sum_all(square(ag.mix(states, ag.softmax(mix_w)))),
        states + [mix_w], rng)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(123)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))
        loss = ag.softmax_cross_entropy(ag.matmul(x, w), np.array([0, 1, 2]))
        ag.backward(loss)
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


class TestAdam:
    def _store(self, value, trainable=True):
        store = ParameterStore()
        store.add("w", np.array(value, dtype=np.float64), trainable=trainable)
        return store

    def test_first_step_moves_by_lr(self):
        store = self._store([1.0])
        state = OptimState()
        adam_step(store, arena_gradients(store, {"w": np.array([1.0])}), state, lr=0.01,
                  weight_decay=0.0)
        # bias-corrected m-hat = v-hat = 1 at step 1, so the step is -lr
        assert abs(store["w"].data[0] - (1.0 - 0.01)) < 1e-9

    def test_zero_gradient_no_decay_is_identity(self):
        store = self._store([2.5])
        adam_step(store, arena_gradients(store, {"w": np.array([0.0])}), OptimState(), lr=0.1,
                  weight_decay=0.0)
        assert store["w"].data[0] == 2.5

    def test_decoupled_decay_scales_parameter(self):
        store = self._store([2.0])
        adam_step(store, arena_gradients(store, {"w": np.array([0.0])}), OptimState(), lr=1e-3,
                  weight_decay=0.1)
        assert abs(store["w"].data[0] - 2.0 * (1 - 1e-4)) < 1e-15

    def test_frozen_parameter_bit_identical(self):
        store = self._store([1.0])
        store.add("frozen", np.array([3.0]), trainable=False)
        before = store["frozen"].data.copy()
        state = OptimState()
        for _ in range(10):
            adam_step(store, arena_gradients(store, {"w": np.array([0.7])}), state, lr=0.01,
                      weight_decay=0.0)
        np.testing.assert_array_equal(store["frozen"].data, before)
        assert "frozen" not in state.slots

    def test_gradient_map_must_match_trainable_set(self):
        store = self._store([1.0])
        store.add("frozen", np.array([3.0]), trainable=False)
        with pytest.raises(ValueError, match="mismatch"):
            adam_step(store, {"w": np.array([0.0]), "x": np.array([0.0])},
                      OptimState(), lr=0.01, weight_decay=0.0)
        with pytest.raises(ValueError, match="mismatch"):
            adam_step(store, {"w": np.array([0.0]), "frozen": np.array([0.0])},
                      OptimState(), lr=0.01, weight_decay=0.0)

    def test_a_trainable_owner_left_out_takes_no_step(self):
        """An owner the loss did not reach keeps its value, moments and step
        count: no step and no weight decay."""
        store = self._store([1.0])
        store.add("unreached", np.array([3.0]))
        state = OptimState()
        adam_step(store, arena_gradients(store, {"w": np.array([0.7])}), state, lr=0.01,
                  weight_decay=0.1)
        assert store["w"].data[0] != 1.0
        assert store["unreached"].data.tobytes() == np.array([3.0]).tobytes()
        assert "unreached" not in state.slots
        adam_step(store, arena_gradients(store, {"w": np.array([0.7]),
                                                 "unreached": np.array([0.5])}), state,
                  lr=0.01, weight_decay=0.1)
        value = store["unreached"].data.copy()
        slot = {k: np.copy(v) for k, v in state.slots["unreached"].items()}
        adam_step(store, arena_gradients(store, {"w": np.array([0.7])}), state, lr=0.01,
                  weight_decay=0.1)
        assert store["unreached"].data.tobytes() == value.tobytes()
        assert state.slots["unreached"]["t"] == slot["t"] == 1
        for k in ("m", "v"):
            assert state.slots["unreached"][k].tobytes() == slot[k].tobytes()
        assert state.slots["w"]["t"] == 3

    def test_shape_mismatch_rejected(self):
        store = self._store([1.0, 2.0])
        with pytest.raises(ValueError, match="shape"):
            adam_step(store, {"w": np.zeros(3)}, OptimState(), lr=0.01, weight_decay=0.0)

    def test_step_counter_increments(self):
        store = self._store([1.0])
        state = OptimState()
        for expected in (1, 2, 3):
            adam_step(store, arena_gradients(store, {"w": np.array([0.5])}), state, lr=0.01,
                      weight_decay=0.0)
            assert state.slots["w"]["t"] == expected


class TestParameterStore:
    def test_tied_names_share_storage(self):
        store = ParameterStore()
        store.add("a", np.ones(3))
        store.tie("b", "a")
        store["b"].data[0] = 9.0
        assert store["a"].data[0] == 9.0
        assert store.tie_groups() == [["a", "b"]]
        assert [name for name, _ in store.unique_items()] == ["a"]

    def test_copy_preserves_ties_and_flags(self):
        store = ParameterStore()
        store.add("a", np.ones(2), trainable=False)
        store.tie("b", "a")
        store.add("c", np.zeros(2))
        clone = store.copy()
        assert clone.tie_groups() == [["a", "b"]]
        assert clone["a"] is clone["b"]
        assert not clone["a"].requires_grad
        clone["a"].data[0] = 5.0
        assert store["a"].data[0] == 1.0
