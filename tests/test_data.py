"""Vocabulary, packing, corruption, and sampling-weight contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskseq import data as D
from deskseq.autograd import IGNORE
from deskseq.data import (BOS, DOC, EOS, MASK, NUM_SPECIALS, PAD, UNK,
                          NoiseConfig, Vocab)


class TestVocab:
    def test_specials_occupy_fixed_ids(self):
        v = Vocab(["a", "b"])
        assert v.id_to_token[:NUM_SPECIALS] == D.SPECIAL_TOKENS
        assert v.encode(["a", "b"]) == [NUM_SPECIALS, NUM_SPECIALS + 1]

    def test_frequency_then_lexicographic_order(self):
        docs = [["b", "b", "c", "a", "a", "d"]]
        v = D.build_vocab(docs, budget=NUM_SPECIALS + 4)
        assert v.id_to_token[NUM_SPECIALS:] == ["a", "b", "c", "d"]

    def test_budget_truncates_and_oov_maps_to_unk(self):
        docs = [["x", "x", "y", "z"]]
        v = D.build_vocab(docs, budget=NUM_SPECIALS + 1)
        assert v.id_to_token[NUM_SPECIALS:] == ["x"]
        assert v.encode(["x", "y", "q"]) == [NUM_SPECIALS, UNK, UNK]

    def test_round_trip_through_file(self, tmp_path):
        v = D.build_vocab([["hello", "world", "hello"]], budget=16)
        path = tmp_path / "vocab.json"
        v.save(path)
        w = Vocab.load(path)
        assert w.id_to_token == v.id_to_token
        assert w.content_hash() == v.content_hash()

    def test_determinism_across_doc_order(self):
        a = D.build_vocab([["p", "q"], ["q", "r"]], budget=32)
        b = D.build_vocab([["q", "r"], ["p", "q"]], budget=32)
        assert a.id_to_token == b.id_to_token

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            D.build_vocab([["a"]], budget=3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            D.build_vocab([], budget=16)


def unpack(seq):
    """Split a packed sequence back into its per-document token streams."""
    docs, cur = [], []
    for i in seq.ids:
        if i == DOC:
            docs.append(cur)
            cur = []
        else:
            cur.append(i)
    docs.append(cur)
    return docs


class TestPacking:
    def test_two_short_docs_share_one_sequence(self):
        docs = [([10, 11], "en"), ([12], "en")]
        seqs = D.pack_documents(docs, target_len=8)
        assert len(seqs) == 1
        assert seqs[0].ids == [10, 11, DOC, 12]
        assert seqs[0].doc_boundaries == [2]
        assert seqs[0].lang == "en"

    def test_language_switch_starts_new_sequence(self):
        docs = [([10, 11], "en"), ([12, 13], "fr")]
        seqs = D.pack_documents(docs, target_len=16)
        assert [s.lang for s in seqs] == ["en", "fr"]
        assert seqs[0].ids == [10, 11]
        assert seqs[1].ids == [12, 13]

    def test_over_long_document_splits(self):
        docs = [(list(range(10, 30)), "en")]
        seqs = D.pack_documents(docs, target_len=8)
        assert [len(s.ids) for s in seqs] == [8, 8, 4]
        flat = [i for s in seqs for i in s.ids]
        assert flat == list(range(10, 30))

    def test_unpack_round_trip(self):
        docs = [([10, 11, 12], "en"), ([13], "en"), ([14, 15], "en")]
        seqs = D.pack_documents(docs, target_len=32)
        recovered = [d for s in seqs for d in unpack(s)]
        assert recovered == [[10, 11, 12], [13], [14, 15]]

    def test_token_conservation_random_corpora(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            docs = []
            for _ in range(rng.integers(1, 12)):
                length = int(rng.integers(1, 25))
                lang = ["en", "fr"][rng.integers(2)]
                docs.append((list(rng.integers(6, 99, size=length)), lang))
            target = int(rng.integers(4, 20))
            seqs = D.pack_documents(docs, target)
            content = [i for s in seqs for i in s.ids if i != DOC]
            assert content == [i for ids, _ in docs for i in ids]
            for s in seqs:
                assert len(s.ids) <= target
                assert all(s.ids[b] == DOC for b in s.doc_boundaries)
                assert sum(1 for i in s.ids if i == DOC) == len(s.doc_boundaries)

    def test_packing_beats_one_doc_per_sequence(self):
        docs = [([10] * 3, "en") for _ in range(30)]
        seqs = D.pack_documents(docs, target_len=16)
        padded = sum(16 - len(s.ids) for s in seqs)
        naive_padded = 30 * (16 - 3)
        assert padded < naive_padded / 3

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target_len"):
            D.pack_documents([([10], "en")], target_len=1)

    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(st.tuples(st.lists(st.integers(NUM_SPECIALS, 99), min_size=1, max_size=30),
                                   st.sampled_from(["en", "fr"])), min_size=1, max_size=12),
           target=st.integers(2, 24))
    def test_packing_properties(self, docs, target):
        """Content in order, length and language per sequence, and documents
        split only where a sequence ends: unpack returns each document whole,
        or in pieces cut at sequence ends."""
        seqs = D.pack_documents(docs, target)
        content = [i for ids, _ in docs for i in ids]
        assert [i for s in seqs for i in s.ids if i != DOC] == content
        langs = iter(lang for ids, lang in docs for _ in ids)
        doc_cuts = set(np.cumsum([len(ids) for ids, _ in docs]))
        seq_cuts, piece_cuts = set(), set()
        done = 0
        for s in seqs:
            assert 0 < len(s.ids) <= target
            assert {next(langs) for i in s.ids if i != DOC} == {s.lang}
            for piece in unpack(s):
                assert piece
                done += len(piece)
                piece_cuts.add(done)
            seq_cuts.add(done)
        assert piece_cuts == doc_cuts | seq_cuts
        if len(seqs) == 1:
            assert unpack(seqs[0]) == [ids for ids, _ in docs]


class TestMlmCorrupt:
    def test_specials_never_selected(self):
        nc = NoiseConfig(mode=D.MLM_MASK, corruption_ratio=1.0)
        rng = np.random.default_rng(0)
        ids = [BOS, 10, DOC, 11, EOS]
        out, labels = D.mlm_corrupt(ids, nc, rng, vocab_size=32)
        for pos in (0, 2, 4):
            assert out[pos] == ids[pos]
            assert labels[pos] == IGNORE
        assert (labels[[1, 3]] == [10, 11]).all()

    def test_zero_ratio_is_identity(self):
        nc = NoiseConfig(mode=D.MLM_MASK, corruption_ratio=0.0)
        ids = [10, 11, 12]
        out, labels = D.mlm_corrupt(ids, nc, np.random.default_rng(0), 32)
        assert list(out) == ids
        assert (labels == IGNORE).all()

    def test_labels_mark_exactly_the_selected_positions(self):
        nc = NoiseConfig(mode=D.MLM_MASK)
        rng = np.random.default_rng(3)
        ids = np.arange(6, 86)
        out, labels = D.mlm_corrupt(ids, nc, rng, vocab_size=100)
        changed = out != ids
        sel = labels != IGNORE
        # every changed position is selected; kept-selected positions may match
        assert (changed <= sel).all()
        assert (labels[sel] == ids[sel]).all()

    def test_selection_rate_near_fifteen_percent(self):
        nc = NoiseConfig(mode=D.MLM_MASK)
        rng = np.random.default_rng(7)
        ids = np.arange(6, 6 + 20000) % 200 + 6
        _, labels = D.mlm_corrupt(ids, nc, rng, vocab_size=300)
        rate = (labels != IGNORE).mean()
        assert 0.13 < rate < 0.17

    def test_replacement_mix_near_80_10_10(self):
        nc = NoiseConfig(mode=D.MLM_MASK, corruption_ratio=1.0)
        rng = np.random.default_rng(11)
        ids = np.full(30000, 10)
        out, labels = D.mlm_corrupt(ids, nc, rng, vocab_size=5000)
        assert (labels == 10).all()
        masked = (out == MASK).mean()
        kept = (out == 10).mean()
        assert 0.78 < masked < 0.82
        # random replacement can re-draw the original id, but rarely at V=5000
        assert 0.08 < kept < 0.12
        assert ((out >= NUM_SPECIALS) | (out == MASK)).all()

    def test_pad_rejected(self):
        nc = NoiseConfig(mode=D.MLM_MASK)
        with pytest.raises(ValueError, match="PAD"):
            D.mlm_corrupt([PAD, 10], nc, np.random.default_rng(0), 32)

    def test_determinism_given_seed(self):
        nc = NoiseConfig(mode=D.MLM_MASK)
        ids = np.arange(6, 106)
        a = D.mlm_corrupt(ids, nc, np.random.default_rng(D.seed_for(5, 2)), 200)
        b = D.mlm_corrupt(ids, nc, np.random.default_rng(D.seed_for(5, 2)), 200)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestDenoiseCorrupt:
    def test_forced_span_drop(self):
        nc = NoiseConfig(mode=D.SPAN_DROP)
        src, tgt = D._apply_spans([10, 11, 12, 13, 14], nc, [(1, 3)])
        assert src == [10, 13, 14]
        assert tgt == [10, 11, 12, 13, 14]

    def test_forced_span_mask_collapses_run(self):
        nc = NoiseConfig(mode=D.SPAN_MASK)
        src, tgt = D._apply_spans([10, 11, 12, 13, 14], nc, [(1, 3), (3, 4)])
        # adjacent spans form one contiguous run -> a single MASK
        assert src == [10, MASK, 14]
        assert tgt == [10, 11, 12, 13, 14]

    def test_target_is_always_the_original(self):
        rng = np.random.default_rng(2)
        for mode in (D.SPAN_DROP, D.SPAN_MASK):
            nc = NoiseConfig(mode=mode, corruption_ratio=0.3)
            ids = list(rng.integers(6, 50, size=40))
            _, tgt = D.denoise_corrupt(ids, nc, rng)
            assert tgt == ids

    def test_spans_never_cross_doc_separator(self):
        nc = NoiseConfig(mode=D.SPAN_DROP, corruption_ratio=0.5)
        ids = [10, 11, 12, DOC, 13, 14, 15]
        for seed in range(40):
            log = D._draw_spans(ids, nc, np.random.default_rng(seed))
            src, _ = D._apply_spans(ids, nc, log)
            assert DOC in src  # the separator itself is never selected
            for s, e in log:
                assert not any(ids[i] == DOC for i in range(s, e))

    def test_selected_fraction_meets_budget(self):
        nc = NoiseConfig(mode=D.SPAN_DROP, corruption_ratio=0.15)
        ids = list(range(6, 206))
        for seed in range(10):
            log = D._draw_spans(ids, nc, np.random.default_rng(seed))
            covered = sum(e - s for s, e in log)
            assert covered >= 0.15 * len(ids)
            # overshoot is bounded by one span
            assert covered < 0.15 * len(ids) + max(e - s for s, e in log)

    def test_span_length_distribution(self):
        # zero-truncated Poisson(3) has mean 3 / (1 - e^-3) ~ 3.157; realized
        # spans may truncate at boundaries, so test on a long open sequence
        nc = NoiseConfig(mode=D.SPAN_MASK, corruption_ratio=0.10)
        ids = list(range(6, 5006))
        lengths = []
        for seed in range(30):
            log = D._draw_spans(ids, nc, np.random.default_rng(seed))
            lengths.extend(e - s for s, e in log)
        mean = np.mean(lengths)
        assert 2.6 < mean < 3.4
        assert min(lengths) >= 1

    def test_mlm_mode_rejected(self):
        nc = NoiseConfig(mode=D.MLM_MASK)
        with pytest.raises(ValueError, match="span mode"):
            D.denoise_corrupt([10, 11], nc, np.random.default_rng(0))

    def test_empty_sequence_rejected(self):
        nc = NoiseConfig(mode=D.SPAN_DROP)
        with pytest.raises(ValueError, match="empty"):
            D.denoise_corrupt([], nc, np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(st.one_of(st.integers(NUM_SPECIALS, 99),
                                  st.sampled_from([BOS, EOS, DOC, UNK])),
                        min_size=1, max_size=40),
           mode=st.sampled_from([D.SPAN_DROP, D.SPAN_MASK]),
           ratio=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_target_is_the_input_and_no_span_touches_a_separator(self, ids, mode, ratio, seed):
        nc = NoiseConfig(mode=mode, corruption_ratio=ratio)
        log = D._draw_spans(ids, nc, np.random.default_rng(seed))
        src, tgt = D._apply_spans(ids, nc, log)
        assert tgt == ids
        for s, e in log:
            assert 0 <= s < e <= len(ids)
            assert DOC not in ids[s:e]  # a span covering or crossing [DOC] would hold it
        assert src.count(DOC) == ids.count(DOC)
        logged = {i for s, e in log for i in range(s, e)}
        rebuilt = [MASK if i in logged else t for i, t in enumerate(ids)
                   if i not in logged or (mode == D.SPAN_MASK and i - 1 not in logged)]
        assert src == rebuilt


class TestNoiseConfig:
    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="corruption_ratio"):
            NoiseConfig(corruption_ratio=1.5)

    def test_bad_splits_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            NoiseConfig(mlm_splits=(0.5, 0.4, 0.2))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption mode"):
            NoiseConfig(mode="scramble")


class TestCorpusIo:
    def test_read_corpus_tokenizes_and_keeps_lang(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "a b c", "lang": "en"}\n\n{"text": "d", "lang": "fr"}\n')
        docs = D.read_corpus(p)
        assert docs == [(["a", "b", "c"], "en"), (["d"], "fr")]

    def test_malformed_line_reported_with_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        for record in ('{"nope": 1}', '{"text": 5, "lang": "en"}',
                       '{"text": "a", "lang": ["en"]}', '[1, 2]'):
            p.write_text('{"text": "ok", "lang": "en"}\n' + record + "\n")
            with pytest.raises(ValueError, match=f"malformed corpus record at {p} line 2"):
                D.read_corpus(p)

    def test_jsonl_round_trip(self, tmp_path):
        recs = [{"k": 1}, {"k": 2, "v": "x"}]
        p = tmp_path / "r.jsonl"
        D.write_jsonl(p, recs)
        assert D.read_jsonl(p) == recs
