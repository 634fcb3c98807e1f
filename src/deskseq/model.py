"""PreLayerNorm transformer encoder and seq2seq models.

Covers initialization and weight-tying rules, attention-fusion cross-attention,
and the model-surgery operations: warm-starting a seq2seq model from a trained
encoder, and extracting the encoder from a trained seq2seq model.  `build_store`
is the one function that decides a store's vocabulary head and its ties; the
four constructors are entry points into it.

Parameter naming scheme (prefixes are the unit of freezing; `encoder_layout`
and `decoder_layout` list every encoder and decoder row with its shape and
init, and `build_store` reads them):
    embed.tok, embed.pos            shared/source embeddings (encoder side)
    enc.{i}.attn|ffn|ln1|ln2        encoder layers
    enc.final_ln                    final norm after the last PreLN block
    dec.embed.tok (tied), dec.embed.pos
    dec.{i}.self|cross|ffn|ln1|ln2|ln3
    dec.final_ln
    mlm_head.*, lm_head.*           vocabulary projections
    fusion.{i}                      per-decoder-layer mixing logits
    head.*                          task heads attached at fine-tuning time
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from .fields import ConfigError, check_fields
from .params import ParameterStore

STANDARD = "standard"
FUSION = "fusion"

NEG_INF = -1e9  # additive mask value; exp() underflows to exactly 0
INIT_STD = 0.02  # of every initial weight matrix and embedding table


@dataclass
class ModelConfig:
    encoder_layers: int
    decoder_layers: int = 0
    d_model: int = 64
    d_ffn: int = 256
    heads: int = 4
    vocab_size: int = 256
    max_positions: int = 128
    cross_attention: str = STANDARD
    dropout: float = 0.0

    def __post_init__(self):
        check_fields(self, {"encoder_layers": 0, "decoder_layers": 0, "d_model": 1, "d_ffn": 1,
                            "heads": 1, "vocab_size": 1, "max_positions": 1, "dropout": 0},
                     {"cross_attention": (STANDARD, FUSION)})
        if self.dropout >= 1:
            raise ConfigError(f"dropout must be < 1, got {self.dropout!r}")
        if self.encoder_layers + self.decoder_layers < 1:
            raise ConfigError("encoder_layers + decoder_layers must be >= 1, got 0")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.cross_attention == FUSION and self.decoder_layers < 1:
            raise ConfigError("fusion cross-attention requires a decoder")


# ---------------------------------------------------------------------------
# initialization


def trunc_normal(rng, shape):
    """normal(0, INIT_STD) truncated at +-2 INIT_STD via rejection resampling."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > 2.0 * INIT_STD
    while bad.any():
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * INIT_STD
    return out


def _ones(rng, shape):
    return np.ones(shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _fusion(rng, shape):
    """Mixing logits favoring the final encoder state, so training starts close
    to standard cross-attention while keeping nonzero gradients for all layers."""
    logits = np.zeros(shape)
    logits[-1] = 4.0
    return logits


# ---------------------------------------------------------------------------
# parameter layout: ordered (name, shape, init) rows; row order is the RNG
# draw order of from-scratch init, so init and surgery read one table


def _linear_rows(prefix, d_out, d_in):
    return [(f"{prefix}.w", (d_out, d_in), trunc_normal), (f"{prefix}.b", (d_out,), _zeros)]


def _ln_rows(prefix, d):
    return [(f"{prefix}.g", (d,), _ones), (f"{prefix}.b", (d,), _zeros)]


def _attn_rows(prefix, d):  # no key bias: softmax ignores the shift q.bk it adds to a row
    return ([(f"{prefix}.w{p}", (d, d), trunc_normal) for p in "qkvo"]
            + [(f"{prefix}.b{p}", (d,), _zeros) for p in "qvo"])


def _ffn_rows(prefix, d, dff):
    return [(f"{prefix}.w1", (dff, d), trunc_normal), (f"{prefix}.b1", (dff,), _zeros),
            (f"{prefix}.w2", (d, dff), trunc_normal), (f"{prefix}.b2", (d,), _zeros)]


def encoder_layout(cfg):
    """Embeddings, encoder layers and the final norm, as (name, shape, init) rows."""
    d = cfg.d_model
    rows = [("embed.tok", (cfg.vocab_size, d), trunc_normal),
            ("embed.pos", (cfg.max_positions, d), trunc_normal)]
    for i in range(cfg.encoder_layers):
        rows += (_ln_rows(f"enc.{i}.ln1", d) + _attn_rows(f"enc.{i}.attn", d)
                 + _ln_rows(f"enc.{i}.ln2", d) + _ffn_rows(f"enc.{i}.ffn", d, cfg.d_ffn))
    return rows + _ln_rows("enc.final_ln", d)


def decoder_layout(cfg):
    """Decoder layers, final norm, position table and fusion logits, as
    (name, shape, init) rows; `build_store` ties or copies the token table and
    LM head."""
    d = cfg.d_model
    rows = []
    for i in range(cfg.decoder_layers):
        rows += (_ln_rows(f"dec.{i}.ln1", d) + _attn_rows(f"dec.{i}.self", d)
                 + _ln_rows(f"dec.{i}.ln2", d) + _attn_rows(f"dec.{i}.cross", d)
                 + _ln_rows(f"dec.{i}.ln3", d) + _ffn_rows(f"dec.{i}.ffn", d, cfg.d_ffn))
    rows += _ln_rows("dec.final_ln", d) + [("dec.embed.pos", (cfg.max_positions, d), trunc_normal)]
    if cfg.cross_attention == FUSION:
        rows += [(f"fusion.{i}", (cfg.encoder_layers + 1,), _fusion)
                 for i in range(cfg.decoder_layers)]
    return rows


def _init_rows(store, rng, rows):
    for name, shape, init in rows:
        store.add(name, init(rng, shape))


def build_store(cfg, seed, donor=None):
    """The store of model `cfg`, and the one place that decides its head and ties.

    Its encoder rows are drawn from `default_rng(seed)` in layout order, or are
    float64 copies of those of a `donor` store, refused (naming the rows) if it
    lacks one, holds one in another shape or holds layers past `cfg`'s.  The
    head is `lm_head` with a decoder and `mlm_head` without: its weight is tied
    to `embed.tok` when drawn, an untied copy when copied (it trains under a
    frozen encoder), and its bias zero.  A decoder ties `dec.embed.tok` to
    `embed.tok` and draws its rows from the same generator, after the encoder.
    """
    rng = np.random.default_rng(seed)
    rows = encoder_layout(cfg)
    head = "lm_head" if cfg.decoder_layers else "mlm_head"
    store = ParameterStore()
    if donor is None:
        _init_rows(store, rng, rows)
        store.tie(f"{head}.w", "embed.tok")
    else:
        missing = [name for name, _, _ in rows if name not in donor]
        if missing:
            raise ConfigError(f"donor is missing encoder parameters: {missing}")
        extra = sorted({n for n in donor.names() if n.startswith("enc.")} - {n for n, _, _ in rows})
        if extra:
            raise ConfigError(f"donor has encoder parameters past the model's "
                              f"{cfg.encoder_layers} layers: {extra}")
        wrong = [f"{name} {donor[name].data.shape} vs expected {shape}"
                 for name, shape, _ in rows if donor[name].data.shape != shape]
        if wrong:
            raise ConfigError(f"donor shape mismatch: {'; '.join(wrong)}")
        for name, _, _ in rows:
            store.add(name, np.array(donor[name].data, dtype=np.float64))
        store.add(f"{head}.w", store["embed.tok"].data.copy())
    store.add(f"{head}.b", np.zeros(cfg.vocab_size))
    if cfg.decoder_layers:
        store.tie("dec.embed.tok", "embed.tok")
        _init_rows(store, rng, decoder_layout(cfg))
    return store


def _encoder_only(cfg):
    return replace(cfg, decoder_layers=0, cross_attention=STANDARD)


def _seq2seq(cfg):
    if cfg.decoder_layers < 1:
        raise ValueError("seq2seq model requires decoder_layers >= 1")
    return cfg


def init_mlm_encoder(cfg, seed):
    """From-scratch MLM encoder of `cfg` without its decoder (`build_store`)."""
    return build_store(_encoder_only(cfg), seed)


def init_seq2seq(cfg, seed):
    """From-scratch seq2seq model: both embeddings and the LM head share one table (BART)."""
    return build_store(_seq2seq(cfg), seed)


# ---------------------------------------------------------------------------
# forward passes


def _attention(store, prefix, x_q, x_kv, heads, mask, cache=None):
    """Multi-head attention: the q/k/v projections, one `autograd.attention`
    node and the output projection.  mask is an additive ndarray broadcastable
    to the score shape [B, H, Tq, Tk], or None.

    `cache` (a dict, only with grad mode off) holds raw projected (keys,
    values) arrays [B, T, d] per prefix: the keys and values of `x_kv` are
    appended to those cached under `prefix`, and `x_kv` None attends over the
    cached ones alone.  Keys and values of batch 1 broadcast over the queries'
    batch.
    """
    q = ag.linear(x_q, store[f"{prefix}.wq"], store[f"{prefix}.bq"])
    if x_kv is not None:
        k = ag.linear(x_kv, store[f"{prefix}.wk"])
        v = ag.linear(x_kv, store[f"{prefix}.wv"], store[f"{prefix}.bv"])
    if cache is not None:
        if x_kv is not None:
            k, v = k.data, v.data
            if prefix in cache:
                k = np.concatenate([cache[prefix][0], k], axis=1)
                v = np.concatenate([cache[prefix][1], v], axis=1)
            cache[prefix] = (k, v)
        k, v = cache[prefix]
    ctx = ag.attention(q, k, v, heads, mask)
    return ag.linear(ctx, store[f"{prefix}.wo"], store[f"{prefix}.bo"])


def _ffn(store, prefix, x):
    h = ag.gelu(ag.linear(x, store[f"{prefix}.w1"], store[f"{prefix}.b1"]))
    return ag.linear(h, store[f"{prefix}.w2"], store[f"{prefix}.b2"])


def _check_tokens(cfg, tokens, start=0):
    """Validate a [B, T] token batch whose positions start at `start`."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ag.ShapeError(f"token batch must be 2-D, got shape {tokens.shape}")
    if start + tokens.shape[1] > cfg.max_positions:
        raise ValueError(
            f"sequence length {start + tokens.shape[1]} exceeds max_positions {cfg.max_positions}"
        )
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab_size):
        raise ValueError(f"token id out of range [0, {cfg.vocab_size})")
    return tokens


def pad_attention_mask(pad_mask):
    """Additive [B, 1, 1, T] mask from a boolean real-token mask."""
    pad_mask = np.asarray(pad_mask, dtype=bool)
    m = np.where(pad_mask, 0.0, NEG_INF)
    return m[:, None, None, :]


def causal_mask(s, start=0):
    """Additive [1, 1, s, start + s] mask: query i, at position start + i,
    sees keys 0 .. start + i."""
    m = np.triu(np.full((s, start + s), NEG_INF), k=start + 1)
    return m[None, None, :, :]


def encoder_forward(cfg, store, tokens, pad_mask=None, train_rng=None):
    """Returns encoder_layers + 1 states: the embedding output followed by each
    layer's residual-stream output (pre final-LN)."""
    tokens = _check_tokens(cfg, tokens)
    b, t = tokens.shape
    if pad_mask is None:
        pad_mask = np.ones((b, t), dtype=bool)
    p = cfg.dropout if train_rng is not None else 0.0
    x = ag.add(ag.embedding(store["embed.tok"], tokens),
               ag.embedding(store["embed.pos"], np.arange(t)))
    x = ag.dropout(x, p, train_rng)
    mask = pad_attention_mask(pad_mask)
    states = [x]
    for i in range(cfg.encoder_layers):
        h = ag.layer_norm(x, store[f"enc.{i}.ln1.g"], store[f"enc.{i}.ln1.b"])
        x = ag.add(x, ag.dropout(_attention(store, f"enc.{i}.attn", h, h, cfg.heads, mask), p, train_rng))
        h = ag.layer_norm(x, store[f"enc.{i}.ln2.g"], store[f"enc.{i}.ln2.b"])
        x = ag.add(x, ag.dropout(_ffn(store, f"enc.{i}.ffn", h), p, train_rng))
        states.append(x)
    return states


def encoder_output(store, states):
    """Final LN applied to the last encoder state; the memory heads read."""
    return ag.layer_norm(states[-1], store["enc.final_ln.g"], store["enc.final_ln.b"])


def fuse_memory(states, logits):
    """Convex combination over encoder states with softmax(logits) weights."""
    return ag.mix(states, ag.softmax(logits))


class DecodeCache:
    """Decoder state kept between `decoder_forward` calls that decode a few
    positions at a time, with grad mode off.

    `length` counts the positions decoded so far.  `self_kv` holds each
    decoder layer's projected self-attention keys and values [B, T, d], one
    row per sequence; `cross_kv` holds the cross-attention keys and values of
    the memory, computed on the first call and kept at the batch of that
    call's encoder states (batch 1 broadcasts over every sequence).
    """

    def __init__(self):
        self.length = 0
        self.self_kv = {}
        self.cross_kv = {}

    def select(self, rows):
        """Keep the self-attention rows `rows`, in that order (beam ids that
        survive a beam step; a row may repeat)."""
        self.self_kv = {name: (k[rows], v[rows]) for name, (k, v) in self.self_kv.items()}


def decoder_forward(cfg, store, target_in, enc_states, src_pad_mask=None, train_rng=None,
                    cache=None):
    """Causal decoder with cross-attention over encoder memory; returns logits
    [B, S, vocab].

    With a `DecodeCache`, `target_in` holds only the positions after the
    `cache.length` already decoded; their keys and values join the cache.
    The cache keeps raw arrays, so it needs `autograd.no_grad()`.
    """
    if cfg.decoder_layers < 1:
        raise ValueError("model has no decoder")
    if cache is not None and ag.grad_enabled():
        raise ValueError("decoder_forward with a cache runs only under autograd.no_grad(): "
                         "cached keys and values carry no gradient")
    if enc_states is None or len(enc_states) != cfg.encoder_layers + 1:
        raise ValueError(
            f"expected {cfg.encoder_layers + 1} encoder states, got "
            f"{0 if enc_states is None else len(enc_states)}"
        )
    start = 0 if cache is None else cache.length
    target_in = _check_tokens(cfg, target_in, start)
    b, s = target_in.shape
    t_src = enc_states[0].shape[1]
    if src_pad_mask is None:
        src_pad_mask = np.ones((b, t_src), dtype=bool)
    p = cfg.dropout if train_rng is not None else 0.0

    memories = [None] * cfg.decoder_layers  # None: cross keys and values are cached
    if cache is None or not cache.cross_kv:
        # the final encoder state enters cross-attention through the final LN,
        # so one-hot fusion degenerates exactly to standard cross-attention
        final_mem = encoder_output(store, enc_states)
        if cfg.cross_attention == FUSION:
            fusion_states = list(enc_states[:-1]) + [final_mem]
            memories = [fuse_memory(fusion_states, store[f"fusion.{i}"])
                        for i in range(cfg.decoder_layers)]
        else:
            memories = [final_mem] * cfg.decoder_layers
    del enc_states  # standard cross-attention reads only the last: free the rest now

    x = ag.add(ag.embedding(store["dec.embed.tok"], target_in),
               ag.embedding(store["dec.embed.pos"], np.arange(start, start + s)))
    x = ag.dropout(x, p, train_rng)
    self_mask = causal_mask(s, start)
    cross_mask = pad_attention_mask(src_pad_mask)
    self_kv = None if cache is None else cache.self_kv
    cross_kv = None if cache is None else cache.cross_kv
    for i in range(cfg.decoder_layers):
        h = ag.layer_norm(x, store[f"dec.{i}.ln1.g"], store[f"dec.{i}.ln1.b"])
        x = ag.add(x, ag.dropout(
            _attention(store, f"dec.{i}.self", h, h, cfg.heads, self_mask, self_kv), p, train_rng))
        h = ag.layer_norm(x, store[f"dec.{i}.ln2.g"], store[f"dec.{i}.ln2.b"])
        x = ag.add(x, ag.dropout(
            _attention(store, f"dec.{i}.cross", h, memories[i], cfg.heads, cross_mask, cross_kv),
            p, train_rng))
        h = ag.layer_norm(x, store[f"dec.{i}.ln3.g"], store[f"dec.{i}.ln3.b"])
        x = ag.add(x, ag.dropout(_ffn(store, f"dec.{i}.ffn", h), p, train_rng))
    if cache is not None:
        cache.length += s
    x = ag.layer_norm(x, store["dec.final_ln.g"], store["dec.final_ln.b"])
    return ag.linear(x, store["lm_head.w"], store["lm_head.b"])


def mlm_logits(store, enc_out):
    return ag.linear(enc_out, store["mlm_head.w"], store["mlm_head.b"])


# ---------------------------------------------------------------------------
# model surgery (Recipes 1 and 2)


def warm_start_seq2seq(donor, cfg, seed):
    """Seq2seq model whose encoder is copied from a trained encoder-only
    `donor`, its decoder drawn fresh from `seed`, and its LM head an untied
    copy of the embedding (`build_store`)."""
    return build_store(_seq2seq(cfg), seed, donor)


def extract_encoder(seq2seq_store, cfg):
    """Encoder-only model copied from a seq2seq model, the decoder of `cfg`
    left out, with an MLM head untied from the embedding (`build_store`)."""
    if cfg.encoder_layers < 1:
        raise ValueError("model has no encoder layers to extract")
    return build_store(_encoder_only(cfg), None, seq2seq_store)


# ---------------------------------------------------------------------------
# task heads


@dataclass
class HeadSpec:
    kind: str
    label_count: int
    hidden: list[int]  # widths of the gelu hidden layers

    def __post_init__(self):
        check_fields(self, {}, {"kind": ("classification", "labeling")})


def attach_head(store, spec, d_model, seed):
    """Add task-head parameters (MLP with gelu hidden layers) to a store copy."""
    rng = np.random.default_rng(seed)
    out = store.copy()
    rows, d_in = [], d_model
    for j, width in enumerate(spec.hidden):
        rows += _linear_rows(f"head.{j}", width, d_in)
        d_in = width
    _init_rows(out, rng, rows + _linear_rows("head.out", spec.label_count, d_in))
    return out


def head_spec(store, kind):
    """The HeadSpec of the `kind` head in `store`, read from its parameter shapes."""
    hidden = []
    while f"head.{len(hidden)}.w" in store:
        hidden.append(store[f"head.{len(hidden)}.w"].data.shape[0])
    return HeadSpec(kind=kind, label_count=store["head.out.w"].data.shape[0], hidden=hidden)


def head_forward(store, spec, features):
    """Run the task head on selected feature rows [N, d] -> logits [N, labels]."""
    x = features
    for j in range(len(spec.hidden)):
        x = ag.gelu(ag.linear(x, store[f"head.{j}.w"], store[f"head.{j}.b"]))
    return ag.linear(x, store["head.out.w"], store["head.out.b"])


def head_features(cfg, store, spec, tokens, pad_mask=None, word_starts=None, train_rng=None):
    """Encoder states at the head's attachment positions.

    classification: the first position of each sequence.
    labeling: the first subword of each word; `word_starts` is a list of
    strictly-increasing index lists, one per batch row.
    """
    out = encoder_output(store, encoder_forward(cfg, store, tokens, pad_mask,
                                                train_rng=train_rng))
    if spec.kind == "classification":
        b = np.asarray(tokens).shape[0]
        return ag.gather_rows(out, np.arange(b), np.zeros(b, dtype=int))
    if word_starts is None:
        raise ValueError("labeling head requires a word-boundary map")
    bidx, pidx = [], []
    for row, starts in enumerate(word_starts):
        if list(starts) != sorted(set(starts)):
            raise ValueError(f"word boundaries must be strictly increasing, got {starts}")
        for pos in starts:
            bidx.append(row)
            pidx.append(pos)
    return ag.gather_rows(out, np.array(bidx, dtype=int), np.array(pidx, dtype=int))
