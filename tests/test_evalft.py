"""Metric oracles, beam search, and fine-tuning protocols."""

import numpy as np
import pytest

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
        lp = E._next_logprobs(cfg, store, states, mask, [prefix])[0]
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
            lp = E._next_logprobs(cfg, store, states, mask, [prefix])[0]
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


class TestFinetune:
    def test_classifier_solves_separable_task(self):
        cfg = M.ModelConfig(encoder_layers=1, decoder_layers=0, d_model=16,
                            d_ffn=32, heads=2, vocab_size=64, max_positions=16)
        store = M.init_mlm_encoder(cfg, 0)
        train, dev = S.separable_classification(n_train=48, n_dev=16, n_labels=3,
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
        train, dev = S.separable_classification(n_train=16, n_dev=8, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=2)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        fcfg = FinetuneConfig(epochs=2, max_updates=10, batch_size=8, dropout=0.0)
        best, _ = E.finetune_classifier(cfg, store, spec, train, dev, fcfg, seed=0)
        np.testing.assert_array_equal(best["embed.tok"].data, before)
        assert not np.array_equal(best["head.out.w"].data, 0.0)

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

    @pytest.mark.parametrize("n_train,kw,updates,evals", [
        (48, dict(max_updates=2, epochs=5), 2, 1),
        # 4 batches/epoch, the short last one included: each of the 5 epochs trains
        (50, dict(), 20, 5),
    ])
    def test_stops_after_the_epoch_that_spends_the_budget(self, n_train, kw, updates, evals):
        cfg = tiny_cfg(decoder_layers=0, vocab_size=64)
        train, dev = S.separable_classification(n_train=n_train, n_dev=8, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=3)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        best, record = E.finetune_classifier(cfg, M.init_mlm_encoder(cfg, 0), spec, train, dev,
                                             FinetuneConfig(batch_size=16, **kw), seed=0)
        assert record["updates"] == updates
        assert len(record["epochs"]) == evals
        assert record["best"] == max(record["epochs"])
        assert E._head_metric(cfg, best, spec, dev, "accuracy") == record["best"]

    @pytest.mark.parametrize("metric", ["entity_f1", "sciem"])
    def test_head_finetune_rejects_other_metrics_before_training(self, metric, monkeypatch):
        def train_step(*args, **kwargs):
            raise AssertionError("trained before the metric was checked")

        monkeypatch.setattr(T, "train_step", train_step)
        cfg = tiny_cfg(decoder_layers=0, vocab_size=64)
        train, dev = S.separable_classification(n_train=16, n_dev=4, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=3)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        with pytest.raises(ValueError, match=f"metric {metric} not valid for head fine-tuning"):
            E.finetune_classifier(cfg, M.init_mlm_encoder(cfg, 0), spec, train, dev,
                                  FinetuneConfig(metric=metric), seed=0)

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(max_updates=0)])
    def test_empty_update_budget_rejected(self, kw):
        with pytest.raises(ValueError, match="epochs >= 1 and max_updates >= 1"):
            FinetuneConfig(**kw)

    def test_non_finite_loss_raises_in_both_protocols(self):
        cfg = tiny_cfg(vocab_size=64)
        enc_cfg = tiny_cfg(decoder_layers=0, vocab_size=64)
        encoder = M.init_mlm_encoder(enc_cfg, 0)
        seq2seq = M.init_seq2seq(cfg, 0)
        for store in (encoder, seq2seq):
            store["enc.0.ffn.w1"].data[0, 0] = np.nan
        train, dev = S.separable_classification(n_train=16, n_dev=4, n_labels=2,
                                                seq_len=6, vocab_size=64, seed=3)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[8])
        with pytest.raises(T.TrainingDiverged, match="non-finite loss at fine-tune step 0"):
            E.finetune_classifier(enc_cfg, encoder, spec, train, dev, FinetuneConfig(), seed=0)
        pairs = [([6, 7, 8], [9, 10]), ([11, 12], [13])] * 4
        with pytest.raises(T.TrainingDiverged, match="non-finite loss at fine-tune step 0"):
            E.finetune_seq2seq(cfg, seq2seq, pairs, pairs[:2],
                               FinetuneConfig(metric="perplexity"), seed=0)
