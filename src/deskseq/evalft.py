"""Fine-tuning protocols and evaluation metrics.

Metrics are pure functions; fine-tuning reuses the training module's optimizer
and keeps the checkpoint with the best validation metric.  The embedding layer
is frozen during fine-tuning by default.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from . import data as D
from . import model as M
from . import train as T
from .optim import OptimState


# ---------------------------------------------------------------------------
# string metrics


def sciem(pred, gold):
    """Space- and case-insensitive exact match."""
    strip = lambda s: re.sub(r"\s+", "", s).lower()
    return strip(pred) == strip(gold)


def _ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def _overlap_f1(pred, gold, n):
    pc, gc = _ngram_counts(pred, n), _ngram_counts(gold, n)
    overlap = sum(min(c, gc.get(g, 0)) for g, c in pc.items())
    if overlap == 0:
        return 0.0
    p = overlap / sum(pc.values())
    r = overlap / sum(gc.values())
    return 2 * p * r / (p + r)


def _lcs_len(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge(pred, gold):
    """(rouge1_f, rouge2_f, rougeL_f) over lowercased whitespace tokens."""
    pt = pred.lower().split()
    gt = gold.lower().split()
    if not pt or not gt:
        return (0.0, 0.0, 0.0)
    r1 = _overlap_f1(pt, gt, 1)
    r2 = _overlap_f1(pt, gt, 2)
    lcs = _lcs_len(pt, gt)
    if lcs == 0:
        rl = 0.0
    else:
        p = lcs / len(pt)
        r = lcs / len(gt)
        rl = 2 * p * r / (p + r)
    return (r1, r2, rl)


# ---------------------------------------------------------------------------
# BIO entity F1


def bio_chunks(labels):
    """Maximal (type, start, end) chunks; a dangling I-X starts a new chunk
    (lenient repair).  end is inclusive."""
    chunks = []
    cur_type, cur_start = None, None
    for i, lab in enumerate(labels):
        if lab == "O":
            if cur_type is not None:
                chunks.append((cur_type, cur_start, i - 1))
                cur_type = None
            continue
        if len(lab) < 3 or lab[1] != "-" or lab[0] not in "BI":
            raise ValueError(f"malformed BIO label: {lab!r}")
        prefix, etype = lab[0], lab[2:]
        if prefix == "B" or cur_type != etype:
            if cur_type is not None:
                chunks.append((cur_type, cur_start, i - 1))
            cur_type, cur_start = etype, i
    if cur_type is not None:
        chunks.append((cur_type, cur_start, len(labels) - 1))
    return chunks


def entity_f1(pred_seqs, gold_seqs):
    """Micro-averaged exact-chunk (type, start, end) precision/recall/F1,
    ignoring the O tag.  Zero-prediction precision counts as 0."""
    if len(pred_seqs) != len(gold_seqs):
        raise ValueError("pred/gold corpus size mismatch")
    n_pred = n_gold = n_correct = 0
    for pred, gold in zip(pred_seqs, gold_seqs):
        if len(pred) != len(gold):
            raise ValueError("pred/gold sequence length mismatch")
        pc = bio_chunks(pred)
        gc = set(bio_chunks(gold))
        n_pred += len(pc)
        n_gold += len(gc)
        n_correct += sum(1 for c in pc if c in gc)
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# generation


@dataclass
class GenConfig:
    beam_size: int = 3
    max_len: int = 32

    def __post_init__(self):
        for name in ("beam_size", "max_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def beam_search(cfg, store, src_ids, gc):
    """Length-bounded beam search by total log-probability; ties break on the
    lower token id.  Returns the best output id sequence (without BOS/EOS).

    The encoder runs once; each step decodes only the live beams' newest
    token against a `DecodeCache`, with no tape.  The search stops once a
    finished sequence scores above every live beam: log-probabilities are
    never positive, so no live beam could still overtake it.
    """
    if gc.max_len > cfg.max_positions:
        raise ValueError(f"max_len {gc.max_len} exceeds max_positions {cfg.max_positions}")
    src = np.asarray([src_ids], dtype=np.int64)
    src_mask = src != D.PAD
    cache = M.DecodeCache()
    prefixes, scores = [[D.BOS]], np.zeros(1)  # live beams and their total logprobs
    finished = []
    with ag.no_grad():
        enc_states = M.encoder_forward(cfg, store, src, src_mask)
        for _ in range(gc.max_len):
            newest = np.asarray([[p[-1]] for p in prefixes], dtype=np.int64)
            logits = M.decoder_forward(cfg, store, newest, enc_states, src_mask,
                                       cache=cache).data[:, 0]
            z = logits - logits.max(axis=1, keepdims=True)
            logprobs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            total = (scores[:, None] + logprobs).ravel()
            beam, token = np.divmod(np.arange(total.size), cfg.vocab_size)
            # score descending, then token ascending, then beam ascending
            order = np.lexsort((beam, token, -total))
            keep = []
            for k in order[: gc.beam_size * 2]:
                if token[k] == D.EOS:
                    finished.append((prefixes[beam[k]][1:], total[k]))
                else:
                    keep.append(k)
                    if len(keep) == gc.beam_size:
                        break
            if not keep:
                break
            prefixes = [prefixes[beam[k]] + [int(token[k])] for k in keep]
            scores = total[keep]
            if finished and max(score for _, score in finished) > scores.max():
                break
            cache.select(beam[keep])
    for prefix, score in zip(prefixes, scores):
        if len(prefix) - 1 >= gc.max_len:
            finished.append((prefix[1:], score))
    finished.sort(key=lambda c: (-c[1], c[0]))
    return finished[0][0]


def perplexity(cfg, store, pairs):
    """exp(mean token NLL) over teacher-forced (source, target) pairs."""
    if not pairs:
        raise ValueError("perplexity needs a nonempty stream")
    return float(np.exp(T.eval_denoise_loss(cfg, store, pairs)))


# ---------------------------------------------------------------------------
# fine-tuning


@dataclass
class FinetuneConfig:
    peak_lr: float = 3e-4
    warmup_steps: int = 20
    batch_size: int = 16
    epochs: int = 5
    max_updates: int = 1000
    metric: str = "accuracy"  # accuracy (task heads) | perplexity | sciem (seq2seq)
    head_hidden: list = field(default_factory=lambda: [64])
    freeze: tuple = ("Embedding",)
    weight_decay: float = 0.1
    dropout: float = 0.1

    def __post_init__(self):
        if self.epochs < 1 or self.max_updates < 1:
            raise ValueError("fine-tuning needs epochs >= 1 and max_updates >= 1")
        self.freeze = T.check_freeze(self.freeze)


def _metric_better(metric, a, b):
    return a < b if metric == "perplexity" else a > b


def _finetune(ft, train_set, fcfg, seed, warmup_kind, batch_loss, dev_metric):
    """The epoch loop shared by both fine-tuning protocols.

    Each epoch shuffles `train_set`, takes one `train_step` of `ft` per batch
    on `batch_loss(batch, dropout_rng)`, then scores `dev_metric()` and keeps
    a copy of the best-scoring store.  The loop stops after the epoch that
    spends the update budget.  Returns (best store, record).
    """
    opt = OptimState()
    total = min(fcfg.max_updates, fcfg.epochs * math.ceil(len(train_set) / fcfg.batch_size))
    sched = T.LrSchedule(peak=fcfg.peak_lr, total_steps=total,
                         warmup_steps=min(fcfg.warmup_steps, total), warmup_kind=warmup_kind)
    rng = np.random.default_rng(seed)
    best_metric, best_store, history = None, None, []
    step = 0
    for _epoch in range(fcfg.epochs):
        order = rng.permutation(len(train_set))
        for lo in range(0, len(order), fcfg.batch_size):
            if step >= total:
                break
            batch = [train_set[i] for i in order[lo : lo + fcfg.batch_size]]
            loss = batch_loss(batch, np.random.default_rng(D.seed_for(seed, step)))
            T.train_step(ft, loss, opt, T.lr_at(sched, step), fcfg.weight_decay,
                         f"fine-tune step {step}")
            step += 1
        value = dev_metric()
        history.append(value)
        if best_metric is None or _metric_better(fcfg.metric, value, best_metric):
            best_metric = value
            best_store = ft.copy()
        if step >= total:
            break
    record = {"metric": fcfg.metric, "best": best_metric, "epochs": history,
              "updates": step}
    return best_store, record


def finetune_classifier(cfg, store, spec, train_set, dev_set, fcfg, seed):
    """Fine-tune a classification or labeling head on an encoder.

    `train_set`/`dev_set` items: classification (ids, label);
    labeling (ids, word_starts, labels-per-word).
    Returns (best ParameterStore, record with per-epoch metrics).
    """
    if not train_set or not dev_set:
        raise ValueError("empty train or validation split")
    if fcfg.metric != "accuracy":
        raise ValueError(f"metric {fcfg.metric} not valid for head fine-tuning")
    ft = M.attach_head(store, spec, cfg.d_model, seed)
    T.apply_freeze_plan(ft, fcfg.freeze)  # the unused MLM head gets no gradient, so no update
    run_cfg = replace(cfg, dropout=fcfg.dropout)
    return _finetune(ft, train_set, fcfg, seed, "linear",
                     lambda batch, rng: _head_loss(run_cfg, ft, spec, batch, train_rng=rng),
                     lambda: _head_metric(cfg, ft, spec, dev_set, fcfg.metric))


def _head_logits(cfg, store, spec, batch, train_rng=None):
    """Task-head logits for a batch: one row per item, or per word (labeling)."""
    tokens = T.pad_batch([item[0] for item in batch], D.PAD)
    starts = None if spec.kind == "classification" else [item[1] for item in batch]
    feats = M.head_features(cfg, store, spec, tokens, tokens != D.PAD, word_starts=starts,
                            train_rng=train_rng)
    return M.head_forward(store, spec, feats)


def _head_loss(cfg, ft, spec, batch, train_rng=None):
    labels = np.hstack([item[-1] for item in batch]).astype(np.int64)  # one per logits row
    return ag.softmax_cross_entropy(_head_logits(cfg, ft, spec, batch, train_rng), labels)


_HEAD_CHUNK = 16  # items per encoder forward when predicting


def head_predictions(cfg, store, spec, items):
    """Argmax label ids per item: an id, or a list of them (labeling).

    One forward per `_HEAD_CHUNK` items, padded to the chunk's longest.  A
    logit can differ from a one-item forward's in the last bits (a BLAS
    result depends on a matmul's row count); (config, seed) still fixes it.
    """
    preds = []
    with ag.no_grad():
        for lo in range(0, len(items), _HEAD_CHUNK):
            chunk = items[lo : lo + _HEAD_CHUNK]
            ids = np.argmax(_head_logits(cfg, store, spec, chunk).data, axis=1)
            if spec.kind == "classification":
                preds.extend(ids.tolist())
            else:  # one row per word: split the rows back per item
                ends = np.cumsum([len(item[1]) for item in chunk])[:-1]
                preds.extend(rows.tolist() for rows in np.split(ids, ends))
    return preds


def _head_metric(cfg, ft, spec, dev_set, metric):
    """Dev accuracy; `metric` is always "accuracy", kept for perfbench's tracing."""
    preds = head_predictions(cfg, ft, spec, dev_set)
    return float(np.mean([p == item[-1] for p, item in zip(preds, dev_set)]))


def finetune_seq2seq(cfg, store, train_pairs, dev_pairs, fcfg, seed):
    """Fine-tune a seq2seq model on fixed (source ids, target ids) pairs,
    selecting the best checkpoint by teacher-forced perplexity or by exact
    match of the output id list with the target's ([12, 3] does not match
    [1, 23], unlike their space-joined strings)."""
    if not train_pairs or not dev_pairs:
        raise ValueError("empty train or validation split")
    if fcfg.metric not in ("perplexity", "sciem"):
        raise ValueError(f"metric {fcfg.metric} not valid for seq2seq fine-tuning")
    ft = store.copy()
    T.apply_freeze_plan(ft, fcfg.freeze)
    run_cfg = replace(cfg, dropout=fcfg.dropout)

    def dev_metric():
        if fcfg.metric == "perplexity":
            return perplexity(cfg, ft, dev_pairs)
        gc = GenConfig(beam_size=3, max_len=cfg.max_positions - 1)
        return float(np.mean([list(beam_search(cfg, ft, s, gc)) == list(t)
                              for s, t in dev_pairs]))

    return _finetune(ft, train_pairs, fcfg, seed, "exponential",
                     lambda batch, rng: T.denoise_step_loss(run_cfg, ft, *T.pad_pairs(batch),
                                                            train_rng=rng),
                     dev_metric)


def aggregate_seeds(values):
    """mean +- std reporting fields over per-seed metric values."""
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std(ddof=0)),
            "seeds": [float(v) for v in values]}
