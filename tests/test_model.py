"""Model contracts: PreLN behavior, causality, fusion, tying, and surgery."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskseq import autograd as ag
from deskseq import data as D
from deskseq import model as M
from deskseq.autograd import Tensor
from deskseq.optim import OptimState, adam_step

from conftest import composed_attention, composed_linear, finite_diff_check


def small_cfg(dec=2, fusion=False, **kw):
    base = dict(encoder_layers=2, decoder_layers=dec, d_model=8, d_ffn=16,
                heads=2, vocab_size=32, max_positions=16,
                cross_attention=M.FUSION if fusion else M.STANDARD)
    base.update(kw)
    return M.ModelConfig(**base)


def token_batch(rng, cfg, b, t):
    return rng.integers(6, cfg.vocab_size, size=(b, t))


class TestEncoderForward:
    def test_state_count_and_shapes(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        states = M.encoder_forward(cfg, store, token_batch(rng, cfg, 2, 5))
        assert len(states) == 3
        for s in states:
            assert s.shape == (2, 5, 8)

    def test_zeroed_projections_give_residual_identity(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        for i in range(cfg.encoder_layers):
            store[f"enc.{i}.attn.wo"].data[:] = 0.0
            store[f"enc.{i}.attn.bo"].data[:] = 0.0
            store[f"enc.{i}.ffn.w2"].data[:] = 0.0
            store[f"enc.{i}.ffn.b2"].data[:] = 0.0
        states = M.encoder_forward(cfg, store, token_batch(rng, cfg, 2, 4))
        for s in states[1:]:
            np.testing.assert_array_equal(s.data, states[0].data)

    def test_padded_positions_do_not_leak(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        tokens = token_batch(rng, cfg, 2, 6)
        pad_mask = np.ones((2, 6), dtype=bool)
        pad_mask[:, 4:] = False
        states_a = M.encoder_forward(cfg, store, tokens, pad_mask)
        flipped = tokens.copy()
        flipped[:, 4:] = token_batch(rng, cfg, 2, 6)[:, 4:]
        states_b = M.encoder_forward(cfg, store, flipped, pad_mask)
        for a, b in zip(states_a, states_b):
            np.testing.assert_allclose(a.data[:, :4], b.data[:, :4], atol=1e-12)

    def test_too_long_sequence_rejected(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        with pytest.raises(ValueError, match="max_positions"):
            M.encoder_forward(cfg, store, token_batch(rng, cfg, 1, 17))

    def test_out_of_range_id_rejected(self):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        with pytest.raises(ValueError, match="out of range"):
            M.encoder_forward(cfg, store, np.full((1, 3), cfg.vocab_size))


class TestDecoderForward:
    def test_shape_contract(self, rng):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 0)
        states = M.encoder_forward(cfg, store, token_batch(rng, cfg, 2, 6))
        logits = M.decoder_forward(cfg, store, token_batch(rng, cfg, 2, 4), states)
        assert logits.shape == (2, 4, 32)

    def test_causality_over_all_positions(self, rng):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 0)
        src = token_batch(rng, cfg, 1, 5)
        states = M.encoder_forward(cfg, store, src)
        tgt = token_batch(rng, cfg, 1, 6)
        base = M.decoder_forward(cfg, store, tgt, states).data
        for t in range(5):
            perturbed = tgt.copy()
            perturbed[0, t + 1 :] = token_batch(rng, cfg, 1, 6)[0, t + 1 :]
            out = M.decoder_forward(cfg, store, perturbed, states).data
            np.testing.assert_allclose(out[0, : t + 1], base[0, : t + 1], atol=1e-12)

    def test_missing_memory_rejected(self, rng):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 0)
        with pytest.raises(ValueError, match="encoder states"):
            M.decoder_forward(cfg, store, token_batch(rng, cfg, 1, 3), None)

    def test_cache_with_grad_enabled_rejected(self, rng):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 0)
        states = M.encoder_forward(cfg, store, token_batch(rng, cfg, 1, 3))
        cache = M.DecodeCache()
        with pytest.raises(ValueError, match="no_grad"):
            M.decoder_forward(cfg, store, token_batch(rng, cfg, 1, 2), states, cache=cache)
        assert cache.length == 0 and not cache.self_kv and not cache.cross_kv

    def test_cache_past_max_positions_rejected(self, rng):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 0)
        with ag.no_grad():
            states = M.encoder_forward(cfg, store, token_batch(rng, cfg, 1, 3))
            cache = M.DecodeCache()
            M.decoder_forward(cfg, store, token_batch(rng, cfg, 1, 15), states, cache=cache)
            with pytest.raises(ValueError, match="sequence length 17 exceeds max_positions 16"):
                M.decoder_forward(cfg, store, token_batch(rng, cfg, 1, 2), states, cache=cache)


class TestFusion:
    def test_one_hot_matches_selected_state(self, rng):
        states = [Tensor(rng.normal(size=(2, 3, 4))) for _ in range(3)]
        logits = Tensor(np.array([M.NEG_INF, M.NEG_INF, 0.0]))
        out = M.fuse_memory(states, logits)
        np.testing.assert_array_equal(out.data, states[2].data)

    def test_uniform_logits_give_mean(self, rng):
        states = [Tensor(rng.normal(size=(2, 3, 4))) for _ in range(4)]
        out = M.fuse_memory(states, Tensor(np.zeros(4)))
        mean = sum(s.data for s in states) / 4
        np.testing.assert_allclose(out.data, mean, rtol=1e-12)

    def test_random_logits_match_direct_formula(self, rng):
        states = [Tensor(rng.normal(size=(2, 2, 3))) for _ in range(3)]
        logits = rng.normal(size=3)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        expect = sum(wi * s.data for wi, s in zip(w, states))
        out = M.fuse_memory(states, Tensor(logits))
        np.testing.assert_allclose(out.data, expect, rtol=1e-10)

    def test_length_mismatch_rejected(self, rng):
        states = [Tensor(rng.normal(size=(1, 2, 3))) for _ in range(3)]
        with pytest.raises(ag.ShapeError, match="does not match 3 states"):
            M.fuse_memory(states, Tensor(np.zeros(4)))

    def test_one_hot_fusion_bit_equals_standard_cross_attention(self, rng):
        fusion_cfg = small_cfg(fusion=True)
        std_cfg = small_cfg(fusion=False)
        fstore = M.init_seq2seq(fusion_cfg, 3)
        # mirror every non-fusion parameter, then force exact one-hot logits
        sstore = M.init_seq2seq(std_cfg, 3)
        for name in sstore.names():
            sstore[name].data[:] = fstore[name].data
        for i in range(fusion_cfg.decoder_layers):
            fstore[f"fusion.{i}"].data[:] = M.NEG_INF
            fstore[f"fusion.{i}"].data[-1] = 0.0
        src = token_batch(rng, fusion_cfg, 2, 5)
        tgt = token_batch(rng, fusion_cfg, 2, 4)
        fs = M.encoder_forward(fusion_cfg, fstore, src)
        ss = M.encoder_forward(std_cfg, sstore, src)
        a = M.decoder_forward(fusion_cfg, fstore, tgt, fs).data
        b = M.decoder_forward(std_cfg, sstore, tgt, ss).data
        np.testing.assert_array_equal(a, b)


class TestWarmStart:
    def _donor_and_model(self, seed=0):
        enc_cfg = small_cfg(dec=0)
        s2s_cfg = small_cfg(dec=2)
        donor = M.init_mlm_encoder(enc_cfg, seed)
        store = M.warm_start_seq2seq(donor, s2s_cfg, seed + 1)
        return donor, store, s2s_cfg

    def test_encoder_copied_bit_exactly(self):
        donor, store, cfg = self._donor_and_model()
        for name, _, _ in M.encoder_layout(cfg):
            np.testing.assert_array_equal(store[name].data, donor[name].data)

    def test_decoder_embedding_tied_to_encoder_embedding(self):
        _, store, _ = self._donor_and_model()
        assert ["dec.embed.tok", "embed.tok"] in store.tie_groups()
        store["dec.embed.tok"].data[0, 0] = 42.0
        assert store["embed.tok"].data[0, 0] == 42.0

    def test_lm_head_untied_and_trainable_under_frozen_encoder(self, rng):
        from deskseq import train as T

        _, store, cfg = self._donor_and_model()
        np.testing.assert_array_equal(store["lm_head.w"].data, store["embed.tok"].data)
        assert store["lm_head.w"] is not store["embed.tok"]
        T.apply_freeze_plan(store, ("Encoder",))
        assert not store["embed.tok"].requires_grad
        assert not store["dec.embed.tok"].requires_grad
        assert store["lm_head.w"].requires_grad
        # one optimizer step: head moves, embedding does not
        src = token_batch(rng, cfg, 2, 5)
        tgt = token_batch(rng, cfg, 2, 4)
        states = M.encoder_forward(cfg, store, src)
        logits = M.decoder_forward(cfg, store, tgt, states)
        labels = rng.integers(0, cfg.vocab_size, size=8)
        loss = ag.softmax_cross_entropy(ag.reshape(logits, (-1, cfg.vocab_size)), labels)
        emb_before = store["embed.tok"].data.copy()
        store.zero_grad()
        ag.backward(loss)
        adam_step(store, store.gradient_map(), OptimState(), lr=1e-2, weight_decay=0.0)
        np.testing.assert_array_equal(store["embed.tok"].data, emb_before)
        assert not np.array_equal(store["lm_head.w"].data, store["embed.tok"].data)

    def test_shape_mismatch_lists_offender(self):
        enc_cfg = small_cfg(dec=0)
        donor = M.init_mlm_encoder(enc_cfg, 0)
        bad_cfg = small_cfg(dec=2, d_ffn=24)
        with pytest.raises(ValueError, match="enc.0.ffn.w1"):
            M.warm_start_seq2seq(donor, bad_cfg, 1)

    def test_donor_with_more_layers_rejected(self):
        """Every donor row fits a 1-layer model, but its second layer would be
        dropped while its final norm, trained after that layer, is kept."""
        donor = M.init_mlm_encoder(small_cfg(dec=0), 0)
        with pytest.raises(ValueError, match=re.escape("past the model's 1 layers: ['enc.1.")):
            M.warm_start_seq2seq(donor, small_cfg(encoder_layers=1), 1)


class TestExtractEncoder:
    def test_encoder_copied_and_no_decoder_names(self):
        cfg = small_cfg()
        s2s = M.init_seq2seq(cfg, 0)
        enc = M.extract_encoder(s2s, cfg)
        for name, _, _ in M.encoder_layout(cfg):
            np.testing.assert_array_equal(enc[name].data, s2s[name].data)
        assert not [n for n in enc.names() if n.startswith("dec.")]
        assert not [n for n in enc.names() if n.startswith("lm_head.")]

    def test_mlm_head_initialized_from_embedding_then_diverges(self, rng):
        cfg = small_cfg()
        enc_cfg = small_cfg(dec=0)
        s2s = M.init_seq2seq(cfg, 0)
        enc = M.extract_encoder(s2s, enc_cfg)
        np.testing.assert_array_equal(enc["mlm_head.w"].data, enc["embed.tok"].data)
        assert enc["mlm_head.w"] is not enc["embed.tok"]  # untied
        tokens = token_batch(rng, enc_cfg, 2, 5)
        states = M.encoder_forward(enc_cfg, enc, tokens)
        logits = M.mlm_logits(enc, M.encoder_output(enc, states))
        labels = rng.integers(0, enc_cfg.vocab_size, size=10)
        loss = ag.softmax_cross_entropy(ag.reshape(logits, (-1, enc_cfg.vocab_size)), labels)
        enc.zero_grad()
        ag.backward(loss)
        adam_step(enc, enc.gradient_map(), OptimState(), lr=1e-2, weight_decay=0.0)
        assert not np.array_equal(enc["mlm_head.w"].data, enc["embed.tok"].data)

    @pytest.mark.parametrize("kw,offender", [
        (dict(d_ffn=24), "enc.0.ffn.w1 (32, 8) vs expected (24, 8)"),
        (dict(encoder_layers=3), "enc.2.attn.wq"),
        (dict(encoder_layers=1), "past the model's 1 layers: ['enc.1."),
    ])
    def test_config_mismatch_lists_offenders(self, kw, offender):
        s2s = M.init_seq2seq(small_cfg(d_ffn=32), 0)
        with pytest.raises(ValueError, match=re.escape(offender)):
            M.extract_encoder(s2s, small_cfg(dec=0, **kw))


model_configs = st.builds(
    lambda enc, dec, heads, head_dim, d_ffn, vocab, positions, fusion: M.ModelConfig(
        encoder_layers=enc, decoder_layers=dec, d_model=heads * head_dim, d_ffn=d_ffn,
        heads=heads, vocab_size=vocab, max_positions=positions,
        cross_attention=M.FUSION if fusion else M.STANDARD),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
    st.integers(1, 12), st.integers(6, 24), st.integers(1, 10), st.booleans())


@settings(max_examples=40, deadline=None)
@given(cfg=model_configs, seed=st.integers(0, 2**32 - 1))
def test_layout_table_matches_init_and_surgery_round_trips(cfg, seed):
    enc_rows = M.encoder_layout(cfg)
    dec_rows = M.decoder_layout(cfg)
    names = [name for name, _, _ in enc_rows + dec_rows]
    assert len(names) == len(set(names))
    enc_shapes = {name: shape for name, shape, _ in enc_rows}
    enc_cfg = dataclasses.replace(cfg, decoder_layers=0, cross_attention=M.STANDARD)
    donor = M.init_mlm_encoder(enc_cfg, seed)
    assert {n: donor[n].shape for n in donor.names()
            if not n.startswith("mlm_head.")} == enc_shapes
    s2s = M.init_seq2seq(cfg, seed)
    heads = ("dec.embed.tok", "lm_head.w", "lm_head.b")
    assert {n: s2s[n].shape for n in s2s.names() if n not in heads} == {
        **enc_shapes, **{name: shape for name, shape, _ in dec_rows}}
    back = M.extract_encoder(M.warm_start_seq2seq(donor, cfg, seed + 1), enc_cfg)
    for name in enc_shapes:
        assert back[name].data.dtype == donor[name].data.dtype
        assert back[name].data.tobytes() == donor[name].data.tobytes()


class TestHeads:
    def test_classification_shape(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        spec = M.HeadSpec(kind="classification", label_count=5, hidden=[12])
        ft = M.attach_head(store, spec, cfg.d_model, 1)
        tokens = token_batch(rng, cfg, 3, 6)
        feats = M.head_features(cfg, ft, spec, tokens)
        logits = M.head_forward(ft, spec, feats)
        assert logits.shape == (3, 5)
        assert M.head_spec(ft, spec.kind) == spec

    def test_labeling_selects_first_subwords(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        spec = M.HeadSpec(kind="labeling", label_count=4, hidden=[12])
        ft = M.attach_head(store, spec, cfg.d_model, 1)
        tokens = token_batch(rng, cfg, 1, 7)  # 4 words over 7 subwords
        feats = M.head_features(cfg, ft, spec, tokens, word_starts=[[0, 2, 3, 5]])
        logits = M.head_forward(ft, spec, feats)
        assert logits.shape == (4, 4)

    def test_labeling_without_boundaries_rejected(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        spec = M.HeadSpec(kind="labeling", label_count=4, hidden=[])
        ft = M.attach_head(store, spec, cfg.d_model, 1)
        assert M.head_spec(ft, spec.kind) == spec
        with pytest.raises(ValueError, match="word-boundary"):
            M.head_features(cfg, ft, spec, token_batch(rng, cfg, 1, 5))

    def test_head_depends_only_on_selected_states(self, rng):
        # oracle: recompute the head on the extracted state rows directly
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        spec = M.HeadSpec(kind="labeling", label_count=3, hidden=[10])
        ft = M.attach_head(store, spec, cfg.d_model, 1)
        tokens = token_batch(rng, cfg, 2, 6)
        starts = [[0, 3], [1, 4]]
        logits = M.head_forward(ft, spec, M.head_features(cfg, ft, spec, tokens,
                                                          word_starts=starts)).data
        states = M.encoder_forward(cfg, ft, tokens)
        out = M.encoder_output(ft, states).data
        rows = np.stack([out[0, 0], out[0, 3], out[1, 1], out[1, 4]])
        direct = M.head_forward(ft, spec, Tensor(rows)).data
        np.testing.assert_allclose(logits, direct, atol=1e-12)


def test_full_seq2seq_gradients(rng):
    """Finite differences through a 2-layer encoder + 2-layer decoder model."""
    cfg = small_cfg()
    store = M.init_seq2seq(cfg, 5)
    src = token_batch(rng, cfg, 2, 5)
    tgt_in = token_batch(rng, cfg, 2, 4)
    labels = rng.integers(0, cfg.vocab_size, size=8)

    def make_loss():
        states = M.encoder_forward(cfg, store, src)
        logits = M.decoder_forward(cfg, store, tgt_in, states)
        return ag.softmax_cross_entropy(ag.reshape(logits, (-1, cfg.vocab_size)), labels)

    tensors = [t for _, t in store.unique_items()]
    store.zero_grad()
    finite_diff_check(make_loss, tensors, rng, samples_per_tensor=2)


def _gradients(store, make_loss):
    store.zero_grad()
    ag.backward(make_loss())
    # copies: the next backward on this store writes over its gradient arrays
    return {owner: g.copy() for owner, g in store.gradient_map().items()}


def _loss_cases(rng, fusion):
    """Warm-started and from-scratch seq2seq models under the denoise loss,
    and the MLM donor under the MLM loss: {case: (store, loss)}."""
    cfg = small_cfg(fusion=fusion)
    enc_cfg = dataclasses.replace(cfg, decoder_layers=0, cross_attention=M.STANDARD)
    src = token_batch(rng, cfg, 2, 5)
    src[1, 3:] = D.PAD
    real = src != D.PAD
    tgt_in = token_batch(rng, cfg, 2, 4)
    labels = rng.integers(0, cfg.vocab_size, size=8)
    mlm_labels = rng.integers(0, cfg.vocab_size, size=10)

    def denoise(store):
        states = M.encoder_forward(cfg, store, src, real)
        logits = M.decoder_forward(cfg, store, tgt_in, states, real)
        return ag.softmax_cross_entropy(ag.reshape(logits, (-1, cfg.vocab_size)), labels)

    def mlm(store):
        out = M.encoder_output(store, M.encoder_forward(enc_cfg, store, src, real))
        logits = M.mlm_logits(store, out)
        return ag.softmax_cross_entropy(ag.reshape(logits, (-1, cfg.vocab_size)), mlm_labels)

    donor = M.init_mlm_encoder(enc_cfg, 3)
    return {"warm": (M.warm_start_seq2seq(donor, cfg, 4), denoise),
            "scratch": (M.init_seq2seq(cfg, 5), denoise), "mlm": (donor, mlm)}


@pytest.mark.parametrize("fusion", [False, True])
def test_linear_gradients_equal_the_composed_projection(rng, monkeypatch, fusion):
    """Every projection is one `linear` node; gradients of denoise and MLM
    losses keep the bytes of the reshape -> matmul -> add -> reshape projection
    over all rows, except where three contributions to one tied table sum in
    another order."""
    cases = _loss_cases(rng, fusion)
    fused = {k: _gradients(store, lambda: loss(store)) for k, (store, loss) in cases.items()}
    monkeypatch.setattr(ag, "linear", composed_linear)
    chain = {k: _gradients(store, lambda: loss(store)) for k, (store, loss) in cases.items()}
    # the owner of embed.tok's group: embed, dec.embed and lm_head
    scratch_table = next(g for g in cases["scratch"][0].tie_groups() if "embed.tok" in g)[0]
    for case in cases:
        assert fused[case].keys() == chain[case].keys()
        for name, g in chain[case].items():
            if case == "scratch" and name == scratch_table:
                assert np.abs(fused[case][name] - g).max() <= 1e-12 * np.abs(g).max()
            else:
                assert fused[case][name].tobytes() == g.tobytes(), (case, name)


@pytest.mark.parametrize("fusion", [False, True])
def test_attention_gradients_equal_the_composed_chain(rng, monkeypatch, fusion):
    """Every attention is one `attention` node; gradients of denoise and MLM
    losses, with pad masks, keep the bytes of the split-heads -> ... ->
    merge-heads chain on every model, the from-scratch tied table included."""
    cases = _loss_cases(rng, fusion)
    fused = {k: _gradients(store, lambda: loss(store)) for k, (store, loss) in cases.items()}
    monkeypatch.setattr(ag, "attention", composed_attention)
    chain = {k: _gradients(store, lambda: loss(store)) for k, (store, loss) in cases.items()}
    for case in cases:
        assert fused[case].keys() == chain[case].keys()
        for name, g in chain[case].items():
            assert fused[case][name].tobytes() == g.tobytes(), (case, name)


def _full_logits(cfg, store, prefixes, states, mask):
    """Uncached decoder logits, with the batch-1 encoder output tiled per row."""
    rows = len(prefixes)
    tiled = [Tensor(np.repeat(x.data, rows, axis=0)) for x in states]
    return M.decoder_forward(cfg, store, np.asarray(prefixes), tiled,
                             np.repeat(mask, rows, axis=0)).data


@settings(max_examples=40, deadline=None)
@given(cfg=model_configs, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cached_decoding_matches_full_decoder_forward(cfg, seed, data):
    """Prefill k positions, then decode one or two positions at a time while
    beams are re-indexed: every logits row equals the full decoder's within
    1e-12."""
    rng = np.random.default_rng(seed)
    store = M.init_seq2seq(cfg, seed)
    t_src = data.draw(st.integers(1, cfg.max_positions), label="t_src")
    src = rng.integers(D.PAD + 1, cfg.vocab_size, size=(1, t_src))
    src[0, 1:][rng.random(t_src - 1) < 0.5] = D.PAD
    mask = src != D.PAD
    n = data.draw(st.integers(1, cfg.max_positions), label="length")
    k = data.draw(st.integers(1, n), label="prefill")
    beams = data.draw(st.integers(1, 3), label="beams")
    prefixes = rng.integers(0, cfg.vocab_size, size=(beams, k)).tolist()
    states = M.encoder_forward(cfg, store, src, mask)
    cache = M.DecodeCache()
    with ag.no_grad():
        got = M.decoder_forward(cfg, store, np.asarray(prefixes), states, mask, cache=cache).data
    np.testing.assert_allclose(got, _full_logits(cfg, store, prefixes, states, mask),
                               rtol=0, atol=1e-12)
    while len(prefixes[0]) < n:
        rows = data.draw(st.lists(st.integers(0, len(prefixes) - 1), min_size=1, max_size=3),
                         label="kept rows")
        width = data.draw(st.integers(1, min(2, n - len(prefixes[0]))), label="width")
        new = rng.integers(0, cfg.vocab_size, size=(len(rows), width))
        prefixes = [prefixes[r] + new[i].tolist() for i, r in enumerate(rows)]
        cache.select(rows)
        with ag.no_grad():
            got = M.decoder_forward(cfg, store, new, states, mask, cache=cache).data
        np.testing.assert_allclose(got, _full_logits(cfg, store, prefixes, states, mask)[:, -width:],
                                   rtol=0, atol=1e-12)
    assert cache.length == n
