"""Metric oracles, beam search, and fine-tuning protocols."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskseq import autograd as ag
from deskseq import data as D
from deskseq import evalft as E
from deskseq import model as M
from deskseq import synth as S
from deskseq import train as T
from deskseq.evalft import (FinetuneConfig, GenConfig, beam_search, bio_chunks,
                            entity_f1, perplexity, rouge, sciem)


def tiny_cfg(**kw):
    base = dict(encoder_layers=1, decoder_layers=1, d_model=8, d_ffn=16,
                heads=2, vocab_size=10, max_positions=16)
    base.update(kw)
    return M.ModelConfig(**base)


def separable_classification(n_train=96, n_dev=32, n_labels=3, seq_len=8,
                             vocab_size=256, seed=0):
    """(train, dev) items whose label is fully determined by a class-marker
    token at position 0."""
    rng = np.random.default_rng(seed)
    markers = np.arange(D.NUM_SPECIALS, D.NUM_SPECIALS + n_labels)
    filler_lo = D.NUM_SPECIALS + n_labels

    def sample(n):
        items = []
        for _ in range(n):
            label = int(rng.integers(n_labels))
            ids = [int(markers[label])] + \
                rng.integers(filler_lo, vocab_size, size=seq_len - 1).tolist()
            items.append((ids, label))
        return items

    return sample(n_train), sample(n_dev)


class TestSciem:
    @pytest.mark.parametrize("pred,gold,expect", [
        ("a b c", "abc", True),
        ("ABC", "abc", True),
        ("  a\tb ", "A B", True),
        ("abc", "abd", False),
        ("", "", True),
        ("a", "", False),
    ])
    def test_goldens(self, pred, gold, expect):
        assert sciem(pred, gold) is expect


class TestRouge:
    def test_partial_overlap(self):
        r1, r2, rl = rouge("the cat", "the cat sat")
        assert abs(r1 - 0.8) < 1e-12
        assert abs(r2 - 2 / 3) < 1e-12
        assert abs(rl - 0.8) < 1e-12

    def test_identical_strings_score_one(self):
        assert rouge("a b c", "a b c") == (1.0, 1.0, 1.0)

    def test_disjoint_strings_score_zero(self):
        assert rouge("a b", "c d") == (0.0, 0.0, 0.0)

    def test_case_insensitive(self):
        assert rouge("The Cat", "the cat") == (1.0, 1.0, 1.0)

    def test_empty_pred(self):
        assert rouge("", "a b") == (0.0, 0.0, 0.0)

    def test_clipped_counts(self):
        # repeated pred unigram only matches as often as gold contains it
        r1, _, _ = rouge("a a a a", "a b")
        # overlap clipped to 1: p = 1/4, r = 1/2 -> F = 1/3
        assert abs(r1 - 1 / 3) < 1e-12


class TestBioChunks:
    def test_simple_spans(self):
        labs = ["B-PER", "I-PER", "O", "B-LOC"]
        assert bio_chunks(labs) == [("PER", 0, 1), ("LOC", 3, 3)]

    def test_dangling_i_starts_chunk(self):
        assert bio_chunks(["O", "I-X", "I-X"]) == [("X", 1, 2)]

    def test_type_change_inside_i_splits(self):
        assert bio_chunks(["B-X", "I-Y"]) == [("X", 0, 0), ("Y", 1, 1)]

    def test_b_always_starts_new_chunk(self):
        assert bio_chunks(["B-X", "B-X"]) == [("X", 0, 0), ("X", 1, 1)]

    def test_malformed_label_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            bio_chunks(["B-X", "Q-X"])
        with pytest.raises(ValueError, match="malformed"):
            bio_chunks(["B"])


class TestEntityF1:
    def test_half_right_gives_half_everything(self):
        gold = [["B-X", "O", "B-Y"]]
        pred = [["B-X", "O", "B-X"]]
        p, r, f = entity_f1(pred, gold)
        assert (p, r, f) == (0.5, 0.5, 0.5)

    def test_perfect_prediction(self):
        seqs = [["B-X", "I-X", "O"], ["O", "B-Y", "O"]]
        assert entity_f1(seqs, seqs) == (1.0, 1.0, 1.0)

    def test_no_predictions_scores_zero(self):
        p, r, f = entity_f1([["O", "O"]], [["B-X", "O"]])
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_boundary_error_counts_as_wrong(self):
        p, r, f = entity_f1([["B-X", "I-X", "O"]], [["B-X", "O", "O"]])
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_type_error_counts_as_wrong(self):
        p, r, f = entity_f1([["B-Y"]], [["B-X"]])
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_micro_average_pools_counts(self):
        gold = [["B-X"], ["B-X", "O", "B-X"]]
        pred = [["B-X"], ["O", "O", "O"]]
        p, r, f = entity_f1(pred, gold)
        assert p == 1.0
        assert abs(r - 1 / 3) < 1e-12
        assert abs(f - 0.5) < 1e-12

    def test_spurious_predictions_hurt_precision_only(self):
        p, r, f = entity_f1([["B-X", "B-X"]], [["B-X", "O"]])
        assert (p, r) == (0.5, 1.0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            entity_f1([["O"]], [["O"], ["O"]])
        with pytest.raises(ValueError, match="length mismatch"):
            entity_f1([["O"]], [["O", "O"]])


def _full_next_logprobs(cfg, store, states, mask, prefix):
    """Next-token log-probabilities after `prefix`, from the last row of a
    full (uncached) `decoder_forward` over the whole prefix."""
    logits = M.decoder_forward(cfg, store, np.asarray([prefix], dtype=np.int64), states, mask)
    row = logits.data[0, -1]
    z = row - row.max()
    return z - np.log(np.exp(z).sum())


def _exhaustive_best(cfg, store, src_ids, max_len):
    """Global argmax over all decodes: EOS-terminated sequences of length
    <= max_len plus unfinished length-max_len sequences, by total log-prob."""
    src = np.asarray([src_ids], dtype=np.int64)
    mask = src != D.PAD
    states = M.encoder_forward(cfg, store, src, mask)
    best = [None]

    def consider(seq, score):
        if best[0] is None or (-score, seq) < (-best[0][1], best[0][0]):
            best[0] = (seq, score)

    def rec(prefix, score):
        if len(prefix) - 1 == max_len:
            consider(prefix[1:], score)
            return
        lp = _full_next_logprobs(cfg, store, states, mask, prefix)
        for tok in range(cfg.vocab_size):
            if tok == D.EOS:
                consider(prefix[1:], score + lp[tok])
            else:
                rec(prefix + [tok], score + lp[tok])

    rec([D.BOS], 0.0)
    return best[0][0]


class TestBeamSearch:
    def test_wide_beam_matches_exhaustive_search(self):
        cfg = tiny_cfg()
        gc = GenConfig(beam_size=cfg.vocab_size, max_len=3)
        stores = [M.init_seq2seq(cfg, seed) for seed in range(6)]
        # zeroed output head: every next token ties, so only the tie-break order decides
        stores[5]["lm_head.w"].data[:] = 0.0
        stores[5]["lm_head.b"].data[:] = 0.0
        for seed, store in enumerate(stores):
            src = [6, 7, 8]
            got = beam_search(cfg, store, src, gc)
            want = _exhaustive_best(cfg, store, src, gc.max_len)
            assert got == want, f"seed {seed}: {got} != {want}"

    def test_beam_one_equals_greedy(self):
        cfg = tiny_cfg()
        store = M.init_seq2seq(cfg, 3)
        src = [7, 9, 6]
        gc = GenConfig(beam_size=1, max_len=5)
        got = beam_search(cfg, store, src, gc)
        # greedy decode, independently
        srca = np.asarray([src], dtype=np.int64)
        mask = srca != D.PAD
        states = M.encoder_forward(cfg, store, srca, mask)
        prefix = [D.BOS]
        for _ in range(gc.max_len):
            lp = _full_next_logprobs(cfg, store, states, mask, prefix)
            tok = int(np.argmax(lp))
            if tok == D.EOS:
                break
            prefix.append(tok)
        assert got == prefix[1:]

    def test_deterministic(self):
        cfg = tiny_cfg()
        store = M.init_seq2seq(cfg, 1)
        gc = GenConfig(beam_size=3, max_len=4)
        a = beam_search(cfg, store, [6, 7], gc)
        b = beam_search(cfg, store, [6, 7], gc)
        assert a == b

    def test_max_len_bounds_output(self):
        cfg = tiny_cfg()
        store = M.init_seq2seq(cfg, 2)
        gc = GenConfig(beam_size=3, max_len=2)
        assert len(beam_search(cfg, store, [6], gc)) <= 2

    def test_max_len_beyond_positions_rejected_before_encoding(self, monkeypatch):
        cfg = tiny_cfg()
        store = M.init_seq2seq(cfg, 0)

        def no_encoder(*args, **kwargs):
            raise AssertionError("encoder ran")

        monkeypatch.setattr(M, "encoder_forward", no_encoder)
        with pytest.raises(ValueError, match="max_len 17 exceeds max_positions 16"):
            beam_search(cfg, store, [6, 7], GenConfig(beam_size=2, max_len=17))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="beam_size"):
            GenConfig(beam_size=0)
        with pytest.raises(ValueError, match="max_len"):
            GenConfig(max_len=0)


class TestPerplexity:
    def test_uniform_model_scores_vocab_size(self):
        cfg = tiny_cfg()
        store = M.init_seq2seq(cfg, 0)
        # zeroed output head -> uniform next-token distribution everywhere
        store["lm_head.w"].data[:] = 0.0
        store["lm_head.b"].data[:] = 0.0
        pairs = [([6, 7], [8, 9]), ([7], [6, 6, 7])]
        assert abs(perplexity(cfg, store, pairs) - cfg.vocab_size) < 1e-6

    def test_empty_stream_rejected(self):
        cfg = tiny_cfg()
        store = M.init_seq2seq(cfg, 0)
        with pytest.raises(ValueError, match="nonempty"):
            perplexity(cfg, store, [])


class TestAggregateSeeds:
    def test_mean_std_and_echo(self):
        out = E.aggregate_seeds([1.0, 2.0, 3.0])
        assert out["mean"] == 2.0
        assert abs(out["std"] - np.sqrt(2 / 3)) < 1e-12
        assert out["seeds"] == [1.0, 2.0, 3.0]


def head_items(kind, n, seed, vocab_size):
    """`n` items of mixed lengths: every other one is 8 tokens long, so a
    chunk of two or more items holds PAD."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        length = 8 if i % 2 else int(rng.integers(1, 8))
        ids = rng.integers(D.NUM_SPECIALS, vocab_size, size=length).tolist()
        if kind == "classification":
            items.append((ids, int(rng.integers(3))))
        else:
            count = int(rng.integers(1, length + 1))
            starts = sorted(rng.choice(length, size=count, replace=False).tolist())
            items.append((ids, starts, [0] * count))
    return items


def per_item_logits(cfg, store, spec, items):
    """One `head_features` + `head_forward` per item, as a reader of the API would."""
    out = []
    with ag.no_grad():
        for item in items:
            ids = np.asarray([item[0]])
            starts = None if spec.kind == "classification" else [item[1]]
            feats = M.head_features(cfg, store, spec, ids, ids != D.PAD, word_starts=starts)
            out.append(M.head_forward(store, spec, feats).data)
    return out


def head_store(kind, hidden, seed):
    cfg = tiny_cfg(decoder_layers=0, vocab_size=32)
    spec = M.HeadSpec(kind=kind, label_count=3, hidden=hidden)
    return cfg, spec, M.attach_head(M.init_mlm_encoder(cfg, seed), spec, cfg.d_model, seed)


class TestHeadPredictions:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["classification", "labeling"]),
           hidden=st.sampled_from([[], [8]]), n=st.sampled_from([1, 15, 16, 17, 33]),
           seed=st.integers(0, 2**16))
    def test_batched_predictions_match_per_item_forwards(self, kind, hidden, n, seed):
        cfg, spec, store = head_store(kind, hidden, seed)
        items = head_items(kind, n, seed, cfg.vocab_size)
        seen, head_forward = [], M.head_forward

        def recording(*args):
            logits = head_forward(*args)
            seen.append(logits.data)
            return logits

        M.head_forward = recording  # by hand: a function-scoped fixture spans every example
        try:
            preds = E.head_predictions(cfg, store, spec, items)
        finally:
            M.head_forward = head_forward
        reference = per_item_logits(cfg, store, spec, items)
        expect = [np.argmax(r, axis=1).tolist() for r in reference]
        if kind == "classification":
            expect = [e[0] for e in expect]
        assert preds == expect
        batched, single = np.vstack(seen), np.vstack(reference)
        assert batched.shape == single.shape
        assert np.max(np.abs(batched - single)) <= 1e-12

    @pytest.mark.parametrize("kind", ["classification", "labeling"])
    def test_an_all_tie_head_predicts_label_zero(self, kind):
        cfg, spec, store = head_store(kind, [8], 0)
        store["head.out.w"].data[...] = 0.0
        store["head.out.b"].data[...] = 0.0
        items = head_items(kind, 17, 0, cfg.vocab_size)
        preds = E.head_predictions(cfg, store, spec, items)
        if kind == "classification":
            assert preds == [0] * len(items)
        else:
            assert preds == [[0] * len(item[1]) for item in items]

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
    def test_one_encoder_forward_per_16_items(self, n, monkeypatch):
        calls, head_features = [], M.head_features

        def counting(*args, **kwargs):
            calls.append(np.asarray(args[3]).shape[0])
            return head_features(*args, **kwargs)

        monkeypatch.setattr(M, "head_features", counting)
        cfg, spec, store = head_store("labeling", [8], 0)
        preds = E.head_predictions(cfg, store, spec, head_items("labeling", n, 0, 32))
        assert len(calls) == math.ceil(n / 16)
        assert sum(calls) == len(preds) == n


class TestFinetune:
    def test_classifier_solves_separable_task(self):
        cfg = M.ModelConfig(encoder_layers=1, decoder_layers=0, d_model=16,
                            d_ffn=32, heads=2, vocab_size=64, max_positions=16)
        store = M.init_mlm_encoder(cfg, 0)
        train, dev = separable_classification(n_train=48, n_dev=16, n_labels=3,
                                                seq_len=6, vocab_size=64, seed=1)
        spec = M.HeadSpec(kind="classification", label_count=3, hidden=[16])
        fcfg = FinetuneConfig(peak_lr=3e-3, warmup_steps=5, batch_size=8,
                              epochs=8, max_updates=200, metric="accuracy",
                              dropout=0.0)
        best, record = E.finetune_classifier(cfg, store, spec, train, dev, fcfg, seed=0)
        assert record["best"] == 1.0
        assert record["metric"] == "accuracy"
        assert max(record["epochs"]) == record["best"]

    def test_frozen_embedding_is_bit_identical_after_finetuning(self):
        cfg = M.ModelConfig(encoder_layers=1, decoder_layers=0, d_model=16,
                            d_ffn=32, heads=2, vocab_size=64, max_positions=16)
        store = M.init_mlm_encoder(cfg, 0)
        before = store["embed.tok"].data.copy()
        train, dev = separable_classification(n_train=16, n_dev=8, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=2)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        fcfg = FinetuneConfig(epochs=2, max_updates=10, batch_size=8, dropout=0.0)
        best, _ = E.finetune_classifier(cfg, store, spec, train, dev, fcfg, seed=0)
        np.testing.assert_array_equal(best["embed.tok"].data, before)
        assert not np.array_equal(best["head.out.w"].data, 0.0)

    def test_gradient_map_leaves_out_the_mlm_head_under_a_head_loss(self):
        """A task-head loss never reaches the MLM head's bias, so the update
        leaves it out."""
        cfg, spec, store = head_store("classification", [8], 0)
        store.zero_grad()
        ag.backward(E._head_loss(cfg, store, spec, head_items("classification", 4, 0, 32)))
        grads = store.gradient_map()
        assert store["mlm_head.b"].requires_grad
        assert "mlm_head.b" not in grads
        assert {"head.out.w", "head.out.b", "embed.tok"} <= set(grads)

    def test_unfrozen_mlm_head_is_trainable_and_unchanged_after_finetuning(self):
        """On an extracted encoder `mlm_head.w` is untied from the embedding;
        with nothing frozen both MLM-head owners stay trainable, and the head
        loss leaves them bit-identical while the embedding moves."""
        cfg = tiny_cfg(d_model=16, d_ffn=32, vocab_size=64)
        enc_cfg = tiny_cfg(decoder_layers=0, d_model=16, d_ffn=32, vocab_size=64)
        enc = M.extract_encoder(M.init_seq2seq(cfg, 0), enc_cfg)
        assert not any("mlm_head.w" in g for g in enc.tie_groups())
        train, dev = separable_classification(n_train=16, n_dev=8, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=2)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        fcfg = FinetuneConfig(epochs=2, max_updates=10, batch_size=8, dropout=0.0, freeze=[])
        best, _ = E.finetune_classifier(enc_cfg, enc, spec, train, dev, fcfg, seed=0)
        for name in ("mlm_head.w", "mlm_head.b"):
            assert best[name].data.tobytes() == enc[name].data.tobytes(), name
            assert best[name].requires_grad, name
        assert not np.array_equal(best["embed.tok"].data, enc["embed.tok"].data)

    def test_empty_split_rejected(self):
        cfg = tiny_cfg(decoder_layers=0)
        store = M.init_mlm_encoder(cfg, 0)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[])
        with pytest.raises(ValueError, match="empty"):
            E.finetune_classifier(cfg, store, spec, [], [([6], 0)],
                                  FinetuneConfig(), seed=0)

    def test_seq2seq_finetune_tracks_best_perplexity(self):
        cfg = tiny_cfg(vocab_size=70)
        store = M.init_seq2seq(cfg, 0)
        docs = S.pair_language(12, alphabet=16, doc_len=8, seed=0, vocab_size=70)
        pairs = [(d[:4], d[4:]) for d in docs]
        fcfg = FinetuneConfig(peak_lr=1e-3, warmup_steps=2, batch_size=4,
                              epochs=3, max_updates=9, metric="perplexity",
                              freeze=(), dropout=0.0)
        best, record = E.finetune_seq2seq(cfg, store, pairs[:8], pairs[8:], fcfg, seed=1)
        assert record["metric"] == "perplexity"
        assert record["best"] == min(record["epochs"])
        assert record["updates"] == 6  # 2 batches/epoch, capped by epochs
        assert perplexity(cfg, best, pairs[8:]) == record["best"]

    def test_seq2seq_sciem_selection_compares_ids(self, monkeypatch):
        """As strings "12 3" and "1 23" are one SCIEM match; as ids they differ."""
        assert sciem("12 3", "1 23")
        monkeypatch.setattr(E, "beam_search", lambda *args: [12, 3])
        cfg = tiny_cfg(vocab_size=30)
        fcfg = FinetuneConfig(batch_size=2, epochs=1, metric="sciem", dropout=0.0)
        _, record = E.finetune_seq2seq(cfg, M.init_seq2seq(cfg, 0), [([6, 7], [1, 23])],
                                       [([6, 7], [1, 23])], fcfg, seed=0)
        assert record["best"] == 0.0

    @pytest.mark.parametrize("n_train,kw,updates,evals", [
        (48, dict(max_updates=2, epochs=5), 2, 1),
        # 4 batches/epoch, the short last one included: each of the 5 epochs trains
        (50, dict(), 20, 5),
    ])
    def test_stops_after_the_epoch_that_spends_the_budget(self, n_train, kw, updates, evals):
        cfg = tiny_cfg(decoder_layers=0, vocab_size=64)
        train, dev = separable_classification(n_train=n_train, n_dev=8, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=3)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        best, record = E.finetune_classifier(cfg, M.init_mlm_encoder(cfg, 0), spec, train, dev,
                                             FinetuneConfig(batch_size=16, **kw), seed=0)
        assert record["updates"] == updates
        assert len(record["epochs"]) == evals
        assert record["best"] == max(record["epochs"])
        assert E._head_metric(cfg, best, spec, dev, "accuracy") == record["best"]

    def test_a_dev_score_tie_keeps_the_earlier_epochs_store(self, monkeypatch):
        """Every epoch scores the same, so the store after epoch 1 is kept."""
        seen = []

        def constant(cfg, ft, spec, dev_set, metric):
            seen.append({n: ft[n].data.tobytes() for n in ft.names()})
            return 0.5

        monkeypatch.setattr(E, "_head_metric", constant)
        cfg = tiny_cfg(decoder_layers=0, vocab_size=64)
        train, dev = separable_classification(n_train=16, n_dev=4, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=3)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        best, record = E.finetune_classifier(
            cfg, M.init_mlm_encoder(cfg, 0), spec, train, dev,
            FinetuneConfig(peak_lr=1e-2, warmup_steps=1, batch_size=8, epochs=3, dropout=0.0),
            seed=0)
        assert record["epochs"] == [0.5] * 3
        assert seen[0] != seen[-1]
        assert {n: best[n].data.tobytes() for n in best.names()} == seen[0]

    @pytest.mark.parametrize("metric", ["entity_f1", "sciem"])
    def test_head_finetune_rejects_other_metrics_before_training(self, metric, monkeypatch):
        def train_step(*args, **kwargs):
            raise AssertionError("trained before the metric was checked")

        monkeypatch.setattr(T, "train_step", train_step)
        cfg = tiny_cfg(decoder_layers=0, vocab_size=64)
        train, dev = separable_classification(n_train=16, n_dev=4, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=3)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        with pytest.raises(ValueError, match=f"metric {metric} not valid for head fine-tuning"):
            E.finetune_classifier(cfg, M.init_mlm_encoder(cfg, 0), spec, train, dev,
                                  FinetuneConfig(metric=metric), seed=0)

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(max_updates=0)])
    def test_empty_update_budget_rejected(self, kw):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be an int >= 1, got 0"):
            FinetuneConfig(**kw)

    def test_non_finite_loss_raises_in_both_protocols(self):
        cfg = tiny_cfg(vocab_size=64)
        enc_cfg = tiny_cfg(decoder_layers=0, vocab_size=64)
        encoder = M.init_mlm_encoder(enc_cfg, 0)
        seq2seq = M.init_seq2seq(cfg, 0)
        for store in (encoder, seq2seq):
            store["enc.0.ffn.w1"].data[0, 0] = np.nan
        train, dev = separable_classification(n_train=16, n_dev=4, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=3)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        with pytest.raises(T.TrainingDiverged, match="non-finite loss at fine-tune step 0"):
            E.finetune_classifier(enc_cfg, encoder, spec, train, dev, FinetuneConfig(), seed=0)
        pairs = [([6, 7, 8], [9, 10]), ([11, 12], [13])] * 4
        with pytest.raises(T.TrainingDiverged, match="non-finite loss at fine-tune step 0"):
            E.finetune_seq2seq(cfg, seq2seq, pairs, pairs[:2],
                               FinetuneConfig(metric="perplexity"), seed=0)
