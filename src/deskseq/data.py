"""Corpus ingestion, vocabulary, sequence packing, and corruption objectives.

Tokenization is whitespace word-level at desk scale; word boundaries for
labeling heads fall out of the same split.  Corruption is pure per sequence
given an RNG, with per-sequence seeds derived from (global seed, index), so
results do not depend on evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autograd import IGNORE
from .fields import ConfigError, check_fields

PAD, BOS, EOS, MASK, DOC, UNK = 0, 1, 2, 3, 4, 5
SPECIAL_TOKENS = ["<pad>", "<s>", "</s>", "<mask>", "[DOC]", "<unk>"]
NUM_SPECIALS = len(SPECIAL_TOKENS)


class Vocab:
    def __init__(self, tokens):
        """`tokens` is the ordered non-special token list."""
        self.id_to_token = list(SPECIAL_TOKENS) + list(tokens)
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        # a word that spells a special token is text: only the program
        # inserts special ids, so the word encodes as UNK
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token) if i >= NUM_SPECIALS}

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, words):
        return [self.token_to_id.get(w, UNK) for w in words]

    def decode(self, ids):
        # model vocabularies may be padded past the token list; treat any
        # id outside it as unknown rather than failing mid-decode
        n = len(self.id_to_token)
        return [self.id_to_token[i] if 0 <= i < n else self.id_to_token[UNK]
                for i in ids]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"tokens": self.id_to_token[NUM_SPECIALS:]}, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh)["tokens"])

    def content_hash(self):
        import hashlib
        h = hashlib.sha256("\n".join(self.id_to_token).encode()).hexdigest()
        return h[:16]


def tokenize(text):
    return text.split()


def build_vocab(docs, budget):
    """Deterministic vocabulary: specials, then tokens by (freq desc, lex asc).

    `docs` is an iterable of token lists.  A word that spells a special token
    is not counted: it encodes as UNK.
    """
    if budget < NUM_SPECIALS:
        raise ValueError(f"vocab budget {budget} smaller than {NUM_SPECIALS} specials")
    counts = {}
    empty = True
    for doc in docs:
        empty = False
        for tok in doc:
            counts[tok] = counts.get(tok, 0) + 1
    if empty:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocab(ordered[: budget - NUM_SPECIALS])


@dataclass
class PackedSequence:
    ids: list
    doc_boundaries: list  # positions holding the DOC separator
    lang: str


def pack_documents(docs, target_len):
    """Greedy packing in corpus order; same-language documents only share a
    sequence; over-long documents split across sequences.

    `docs` is a list of (ids, lang) pairs.
    """
    if target_len <= 1:
        raise ValueError("target_len must be > 1")
    sequences = []
    cur_ids, cur_bounds, cur_lang = [], [], None
    for ids, lang in docs:
        remaining = list(ids)
        while remaining:
            if cur_ids and (cur_lang != lang or len(cur_ids) + 1 >= target_len):
                sequences.append(PackedSequence(cur_ids, cur_bounds, cur_lang))
                cur_ids, cur_bounds, cur_lang = [], [], None
            if cur_ids:
                cur_bounds.append(len(cur_ids))
                cur_ids.append(DOC)
            cur_lang = lang
            room = target_len - len(cur_ids)
            cur_ids.extend(remaining[:room])
            remaining = remaining[room:]
            if len(cur_ids) >= target_len:
                sequences.append(PackedSequence(cur_ids, cur_bounds, cur_lang))
                cur_ids, cur_bounds, cur_lang = [], [], None
    if cur_ids:
        sequences.append(PackedSequence(cur_ids, cur_bounds, cur_lang))
    return sequences


MLM_MASK = "mlm_mask"
SPAN_DROP = "span_drop"
SPAN_MASK = "span_mask"

MLM_SPLITS = (0.8, 0.1, 0.1)  # a selected token's mask / random / keep shares (BERT)
SPAN_LAMBDA = 3.0  # the Poisson mean of a span's length (BART)


@dataclass
class NoiseConfig:
    mode: str = MLM_MASK
    corruption_ratio: float = 0.15

    def __post_init__(self):
        check_fields(self, {"corruption_ratio": 0}, {"mode": (MLM_MASK, SPAN_DROP, SPAN_MASK)})
        if self.corruption_ratio > 1:
            raise ConfigError(f"corruption_ratio must be <= 1, got {self.corruption_ratio!r}")


def seed_for(global_seed, index):
    return np.random.SeedSequence([int(global_seed), int(index)])


def mlm_corrupt(ids, nc, rng, vocab_size):
    """BERT-style token corruption.

    Each non-special token is independently selected with p = ratio, then
    replaced by MASK / a random non-special token / kept, per MLM_SPLITS.
    Returns (input ids, labels) where unselected positions are labeled IGNORE.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if (ids == PAD).any():
        raise ValueError("mlm_corrupt input must not contain PAD")
    labels = np.full(ids.shape, IGNORE, dtype=np.int64)
    out = ids.copy()
    eligible = ids >= NUM_SPECIALS
    if nc.corruption_ratio <= 0.0 or not eligible.any():
        return out, labels
    selected = eligible & (rng.random(ids.shape) < nc.corruption_ratio)
    if not selected.any():
        return out, labels
    labels[selected] = ids[selected]
    u = rng.random(ids.shape)
    mask_p, random_p, _keep = MLM_SPLITS
    do_mask = selected & (u < mask_p)
    do_random = selected & (u >= mask_p) & (u < mask_p + random_p)
    out[do_mask] = MASK
    n_rand = int(do_random.sum())
    if n_rand:
        out[do_random] = rng.integers(NUM_SPECIALS, vocab_size, size=n_rand)
    return out, labels


def denoise_corrupt(ids, nc, rng):
    """Span corruption for seq2seq de-noising: `_apply_spans` of `_draw_spans`."""
    if nc.mode not in (SPAN_DROP, SPAN_MASK):
        raise ValueError(f"denoise_corrupt needs a span mode, got {nc.mode}")
    ids = list(ids)
    if not ids:
        raise ValueError("cannot corrupt an empty sequence")
    return _apply_spans(ids, nc, _draw_spans(ids, nc, rng))


def _draw_spans(ids, nc, rng):
    """(start, end) half-open spans in draw order: zero-truncated Poisson(SPAN_LAMBDA)
    span lengths at unselected non-special starts until >= ratio * len tokens are
    selected (the final span may overshoot); spans never cross DOC boundaries or
    already-selected positions."""
    n = len(ids)
    selectable = np.asarray(ids) >= NUM_SPECIALS
    selected = np.zeros(n, dtype=bool)
    spans = []
    if selectable.any():
        budget = nc.corruption_ratio * n
        while selected.sum() < budget:
            candidates = np.flatnonzero(selectable & ~selected)
            if candidates.size == 0:
                break
            length = 0
            while length == 0:
                length = int(rng.poisson(SPAN_LAMBDA))
            start = int(candidates[rng.integers(candidates.size)])
            end = start  # DOC is special, so the walk stops at a separator
            while end < n and end - start < length and selectable[end] and not selected[end]:
                end += 1
            selected[start:end] = True
            spans.append((start, end))
    return spans


def _apply_spans(ids, nc, spans):
    """(source, target): SPAN_DROP drops the spans, SPAN_MASK puts one MASK per run."""
    arr = np.asarray(ids)
    selected = np.zeros(len(arr), dtype=bool)
    for s, e in spans:
        selected[s:e] = True
    keep = ~selected
    if nc.mode == SPAN_MASK:  # and the first position of each selected run
        keep |= selected & ~np.concatenate(([False], selected[:-1]))
    return np.where(selected, MASK, arr)[keep].tolist(), list(arr)


# ---------------------------------------------------------------------------
# corpus file I/O (line-delimited {"text": ..., "lang": ...} records)


def read_corpus(path):
    docs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                text, lang = rec["text"], rec["lang"]
                if not (isinstance(text, str) and isinstance(lang, str)):
                    raise TypeError(f"'text' and 'lang' must be strings, got {text!r}, {lang!r}")
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed corpus record at {path} line {lineno}: "
                                 f"{exc}") from exc
            docs.append((tokenize(text), lang))
    return docs


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
