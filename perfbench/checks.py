"""Correctness checks computed apart from the program under test.

Each check takes what the program returned plus what the benchmark computed
on its own, and returns a list of failure messages (empty when it holds), so
a deliberately wrong output can be fed to it in `selftest.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from deskseq import autograd as ag
from deskseq import data as D
from deskseq import model as M

# the reference scale of one Training Unit, as the paper defines it
TU_LAYERS, TU_STEPS, TU_HIDDEN, TU_BATCH_TOKENS = 12, 100_000, 1024, 1_000_000


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_tensors(store, reference, names, what):
    """Every named tensor of `store` is bit-identical to `reference`'s."""
    return [f"{what}: {n} changed" for n in names
            if not _same_bits(store[n].data, reference[n].data)]


def encoder_frozen(store, donor, frozen):
    """After a frozen stage every embed.*/enc.* tensor equals the donor's
    bit for bit; after an unfrozen stage every one of them has moved."""
    names = [n for n in donor.names() if n.startswith(("embed.", "enc."))]
    if frozen:
        return same_tensors(store, donor, names, "frozen stage")
    return [f"unfrozen stage: {n} still equals the donor" for n in names
            if _same_bits(store[n].data, donor[n].data)]


def loss_windows(trace, stage, start=None):
    """The mean loss of the last window of steps is below that of the first.

    A stage that unfreezes parameters starts their Adam moments from zero, and
    the first updates of the newly trainable encoder can lift the loss for a
    few steps (seen on 2 of 12 seeds of the 12-token workload); such a stage is
    held to the first window of `start`, the plan's first stage, instead.
    """
    losses = [row["loss"] for row in trace]
    ref = [row["loss"] for row in (start or trace)]
    w = max(2, len(losses) // 4)
    first, last = float(np.mean(ref[:w])), float(np.mean(losses[-w:]))
    if last < first:
        return []
    return [f"{stage}: final-window mean loss {last!r} is not below first-window {first!r}"]


def own_tu(plan):
    """layers x steps x hidden x batch tokens over the TU scale, summed over
    stages, with a frozen encoder or decoder charged half."""
    cfg = plan.model
    total = Fraction(0)
    for st in plan.stages:
        enc = Fraction(cfg.encoder_layers)
        if "Encoder" in st.freeze:
            enc /= 2
        dec = Fraction(cfg.decoder_layers if st.objective == "denoise" else 0)
        if "Decoder" in st.freeze:
            dec /= 2
        total += (enc + dec) * st.steps * cfg.d_model * st.batch_tokens
    return total / (TU_LAYERS * TU_STEPS * TU_HIDDEN * TU_BATCH_TOKENS)


def tu_matches(plan, program_cost):
    """`cost.tu_cost` of the plan equals the exact Fraction computed here."""
    want = own_tu(plan)
    got = sum((s.total_tu for s in program_cost.stages), Fraction(0))
    inherited = sum((Fraction(tu) for _, tu in plan.inherited_tu), Fraction(0))
    msgs = []
    if got != want:
        msgs.append(f"{plan.name}: stage TU {got} != own {want}")
    if program_cost.total_tu != want + inherited:
        msgs.append(f"{plan.name}: total TU {program_cost.total_tu} != own {want + inherited}")
    return msgs


def checkpoint_roundtrip(cfg, store, opt_state, loaded, what):
    """A checkpoint loads back equal to the in-memory store and optimizer."""
    lcfg, lstore, _manifest, lopt = loaded
    msgs = []
    if lcfg != cfg:
        msgs.append(f"{what}: model config differs after load")
    if lstore.names() != store.names():
        return msgs + [f"{what}: parameter names differ after load"]
    if lstore.tie_groups() != store.tie_groups():
        msgs.append(f"{what}: tie groups differ after load")
    if lstore.trainable() != store.trainable():
        msgs.append(f"{what}: trainable flags differ after load")
    msgs += [f"{what}: {n} differs after load" for n in store.names()
             if not _same_bits(lstore[n].data, store[n].data)]
    if opt_state is not None:
        if lopt is None or sorted(lopt.slots) != sorted(opt_state.slots):
            return msgs + [f"{what}: optimizer slots differ after load"]
        for owner, slot in opt_state.slots.items():
            got = lopt.slots[owner]
            if got["t"] != slot["t"] or not (_same_bits(got["m"], slot["m"])
                                             and _same_bits(got["v"], slot["v"])):
                msgs.append(f"{what}: optimizer state of {owner} differs after load")
    return msgs


def fd_mismatches(loss_fn, store, analytic, rng, h=1e-5, atol=1e-7, rtol=1e-5):
    """Central finite differences of `loss_fn` at two entries of each tensor
    in `analytic` (name -> gradient): the largest-magnitude entry and one
    drawn at random."""
    msgs = []
    for name, grad in analytic.items():
        t = store[name]
        flat = np.abs(grad).reshape(-1)
        for i in (int(np.argmax(flat)), int(rng.integers(flat.size))):
            idx = np.unravel_index(i, t.data.shape)
            orig = t.data[idx]
            t.data[idx] = orig + h
            up = loss_fn().item()
            t.data[idx] = orig - h
            down = loss_fn().item()
            t.data[idx] = orig
            fd = (up - down) / (2 * h)
            an = float(grad[idx])
            if not abs(an - fd) <= atol + rtol * abs(fd):
                msgs.append(f"gradient of {name}{tuple(int(j) for j in idx)}: "
                            f"backward {an!r} vs finite difference {fd!r}")
    return msgs


def analytic_gradients(loss_fn, store, names):
    store.zero_grad()
    ag.backward(loss_fn())
    return {n: (store[n].grad.copy() if store[n].grad is not None
                else np.zeros_like(store[n].data)) for n in names}


def beam_outputs(hyps, targets):
    """Beam search reconstructs every original sequence exactly."""
    return [f"beam output {i} differs from its original sequence"
            for i, (h, t) in enumerate(zip(hyps, targets)) if list(h) != list(t)]


def log_softmax(row):
    z = row - row.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def exhaustive_best(cfg, store, src, max_len):
    """Best output of at most `max_len` decoding steps by total
    log-probability, over every token sequence: either a prefix followed by
    EOS, or `max_len` tokens cut off without EOS.  Ties go to the smaller
    sequence, as in `beam_search`."""
    src_arr = np.asarray([src], dtype=np.int64)
    mask = src_arr != D.PAD
    states = M.encoder_forward(cfg, store, src_arr, mask)
    best = []

    def offer(score, seq):
        if not best or (-score, seq) < (-best[0], best[1]):
            best[:] = [score, seq]

    def visit(prefix, score):
        dec_in = np.asarray([[D.BOS] + prefix], dtype=np.int64)
        lp = log_softmax(M.decoder_forward(cfg, store, dec_in, states, mask).data[0, -1])
        offer(score + lp[D.EOS], prefix)
        for tok in range(cfg.vocab_size):
            if tok == D.EOS:
                continue
            if len(prefix) + 1 == max_len:
                offer(score + lp[tok], prefix + [tok])
            else:
                visit(prefix + [tok], score + lp[tok])

    visit([], 0.0)
    return best[1]


def exhaustive_matches(beam_hyp, exhaustive_hyp, what):
    if list(beam_hyp) == list(exhaustive_hyp):
        return []
    return [f"{what}: beam search gave {list(beam_hyp)}, exhaustive search {list(exhaustive_hyp)}"]


def own_perplexity(cfg, store, pairs):
    """exp of the mean next-token NLL over (source, target) pairs, from
    `decoder_forward` logits of one pair at a time."""
    nll, count = 0.0, 0
    for src, tgt in pairs:
        s = np.asarray([src], dtype=np.int64)
        mask = s != D.PAD
        states = M.encoder_forward(cfg, store, s, mask)
        dec_in = np.asarray([[D.BOS] + list(tgt)], dtype=np.int64)
        lp = log_softmax(M.decoder_forward(cfg, store, dec_in, states, mask).data[0])
        labels = list(tgt) + [D.EOS]
        nll -= sum(lp[i, y] for i, y in enumerate(labels))
        count += len(labels)
    return math.exp(nll / count)


def perplexity_matches(program, own, what, rtol=1e-9):
    if abs(program - own) <= rtol * abs(own):
        return []
    return [f"{what}: perplexity {program!r} vs own {own!r}"]


def head_predictions(cfg, store, spec, items):
    """Per-word label ids by argmax over `head_forward` logits, one item at a time."""
    preds = []
    for ids, starts, _labels in items:
        tokens = np.asarray([ids], dtype=np.int64)
        feats = M.head_features(cfg, store, spec, tokens, tokens != D.PAD, word_starts=[starts])
        logits = M.head_forward(store, spec, feats).data
        preds.append([int(np.argmax(row)) for row in logits])
    return preds


def dev_accuracy(preds, items):
    """Share of items whose every word label is right (the program's
    labeling accuracy)."""
    return float(np.mean([p == list(labels) for p, (_, _, labels) in zip(preds, items)]))


def accuracy_matches(reported, own, floor):
    msgs = []
    if reported != own:
        msgs.append(f"fine-tune: reported best accuracy {reported!r} != recomputed {own!r}")
    if not own >= floor:
        msgs.append(f"fine-tune: dev accuracy {own!r} below the floor {floor!r}")
    return msgs


def chunks(tags):
    """(type, start, end) spans: B-X opens a span, and so does I-X after O or
    after a span of another type; end is inclusive."""
    spans, open_type, start = [], None, 0
    for i, tag in enumerate(list(tags) + ["O"]):
        kind, _, etype = tag.partition("-")
        continues = kind == "I" and etype == open_type
        if open_type is not None and not continues:
            spans.append((open_type, start, i - 1))
            open_type = None
        if kind in ("B", "I") and not continues:
            open_type, start = etype, i
    return spans


def own_entity_f1(pred_tags, gold_tags):
    n_pred = n_gold = n_hit = 0
    for p, g in zip(pred_tags, gold_tags):
        ps, gs = chunks(p), set(chunks(g))
        n_pred += len(ps)
        n_gold += len(gs)
        n_hit += sum(1 for c in ps if c in gs)
    prec = n_hit / n_pred if n_pred else 0.0
    rec = n_hit / n_gold if n_gold else 0.0
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


def f1_matches(reported, own, rtol=1e-12):
    if abs(reported - own) <= rtol * max(1.0, abs(own)):
        return []
    return [f"evaluate: entity F1 {reported!r} vs own {own!r}"]
