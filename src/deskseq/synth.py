"""Synthetic desk-scale corpora and task datasets.

These stand in for the web-scale pre-training data and public benchmarks:
small generative processes whose structure a tiny model can actually learn,
so overfit and directional-comparison runs are meaningful.
"""

from __future__ import annotations

import numpy as np

from .data import NUM_SPECIALS
from .fields import ConfigError, check


def patterned_sequences(n_seqs=64, seq_len=32, vocab_size=256, seed=0):
    """Sequences with per-sequence 3-token alphabets cycling by position.

    Any single visible token identifies the sequence, and position fixes the
    token, so masked or dropped content is exactly recoverable from context.
    """
    check("n_seqs", n_seqs, "int", 1)
    check("seq_len", seq_len, "int", 1)
    usable = vocab_size - NUM_SPECIALS
    if n_seqs * 3 > usable:
        raise ConfigError(f"{n_seqs} sequences need {n_seqs * 3} tokens, have {usable}")
    seqs = []
    for i in range(n_seqs):
        base = NUM_SPECIALS + 3 * i
        seqs.append([base + (t % 3) for t in range(seq_len)])
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_seqs)
    return [seqs[i] for i in order]


def pair_language(n_docs=128, *, alphabet=32, doc_len=24, seed=0, vocab_size=256):
    """Documents of (x, f(x)) token pairs under one fixed random bijection f.

    Recovering a dropped token requires knowing f, so de-noising quality
    tracks how well the encoder has internalized the mapping; held-out
    documents are new draws from the same process.
    """
    check("n_docs", n_docs, "int", 1)
    check("alphabet", alphabet, "int", 1)
    check("doc_len", doc_len, "int", 2)  # one (x, f(x)) pair
    if 2 * alphabet + NUM_SPECIALS > vocab_size:
        raise ConfigError("alphabet too large for vocab")
    mrng = np.random.default_rng(7)  # one f for every corpus, whatever its seed
    lo = NUM_SPECIALS
    image = mrng.permutation(alphabet) + lo + alphabet
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        xs = rng.integers(0, alphabet, size=doc_len // 2)
        doc = []
        for x in xs:
            doc.append(int(lo + x))
            doc.append(int(image[x]))
        docs.append(doc)
    return docs


def toy_labeling_set(n_items=48, n_words=5, vocab_size=64, seed=0):
    """Word-level BIO tags determined by the word token's residue class."""
    rng = np.random.default_rng(seed)
    tags = ["O", "B-X", "I-X", "B-Y"]
    items = []
    for _ in range(n_items):
        ids = rng.integers(NUM_SPECIALS, vocab_size, size=n_words).tolist()
        starts = list(range(n_words))
        labels = [int(t) % len(tags) for t in ids]
        items.append((ids, starts, labels))
    return items
