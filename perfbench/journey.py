"""The deskseq user journey, run in whole rounds and timed phase by phase.

One round is:

1. Recipe 2 pre-training at desk scale: an MLM donor (`roberta-12e`), then
   the warm-started `2stage-bart-12e12d-unfrz` plan, frozen stage then
   unfrozen stage, with a checkpoint saved after each stage as
   `deskseq pretrain` does and the donor loaded back from its checkpoint.
2. Generation: `evalft.beam_search` (beam 3) over de-noised sources from a
   patterned corpus that the set-up's de-noising model has overfit, then
   teacher-forced `evalft.perplexity` over the same pairs.
3. Recipe 1 labeling fine-tune: `evalft.finetune_classifier` on an encoder
   taken by `model.extract_encoder` from a seeded desk seq2seq model, with
   dev-accuracy selection; the tuned checkpoint is then scored by entity F1
   through `deskseq evaluate`.

Every round runs the same operations; the workload only fixes sequence
lengths.  Every timed sample is scaled to reference speed by gauge readings
taken beside it (see gauge.py).  Correctness is checked against computations
made here, apart from the program (see checks.py).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from deskseq import checkpoint as C
from deskseq import cli
from deskseq import cost
from deskseq import data as D
from deskseq import evalft as E
from deskseq import model as M
from deskseq import presets as P
from deskseq import synth as S
from deskseq import train as T

import checks
import tracing
from gauge import REFERENCE_MS, Gauge

now = time.perf_counter

# synth.toy_labeling_set tags a word by its token id: TAGS[id % 4]
TAGS = ("O", "B-X", "I-X", "B-Y")
# label ids as `deskseq finetune` assigns them: sorted label strings
LABELS = sorted(TAGS)
TAG_VOCAB = 14  # toy labeling tokens are ids 6..13, two per tag
SPAN_MASK = D.NoiseConfig(mode=D.SPAN_MASK)

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "mlm_step_ms": "ms",
              "frozen_step_ms": "ms", "unfrozen_step_ms": "ms", "recipe2_s": "s",
              "beam_token_ms": "ms", "score_pair_ms": "ms", "ft_update_ms": "ms",
              "dev_eval_item_ms": "ms"}


@dataclass(frozen=True)
class Workload:
    doc_len: int  # pre-training documents (synth.pair_language)
    beam_len: int  # patterned sequences the generation model overfits
    words: int  # words per labeling item


WORKLOADS = {"seq24": Workload(doc_len=24, beam_len=32, words=5),
             "seq12": Workload(doc_len=12, beam_len=16, words=3)}


@dataclass(frozen=True)
class Sizes:
    """How much work each phase does.  `selftest.py` shrinks these; the
    benchmark runs the defaults."""
    docs: int = 64
    steps_per_100k: int = 4  # desk_plan scale: 20 MLM, 8 frozen, 6 unfrozen updates
    desk: dict = field(default_factory=dict)  # desk_cfg overrides for the 12-layer models
    beam_d_model: int = 64
    beam_seqs: int = 8
    beam_steps: int = 160
    score_reps: int = 4
    ft_train: int = 48
    ft_dev: int = 32
    ft_eval: int = 16
    ft_epochs: int = 5  # the checked fine-tune
    ft_timing_pairs: int = 6  # one-epoch fine-tune pairs that split update and dev time
    setup_repeats: int = 3
    check_floor: bool = True


FD_TENSORS = ("embed.tok", "enc.0.attn.wq", "enc.11.ffn.w2", "dec.0.self.wv",
              "dec.11.cross.wk", "dec.5.ln3.g", "dec.embed.pos", "lm_head.w")


class NoProbe:
    """Stands in for tracing.Probe in untraced runs: no wrappers, no counting."""

    def phase(self, name):
        pass

    def add(self, key, value):
        pass


def accuracy_floor(words):
    """Ten times the chance of tagging every word of an item right, and at
    least 0.05; tags follow from token ids, so a working fine-tune clears it."""
    return max(0.05, 10 * len(TAGS) ** -words)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Inputs:
    docs: list
    beam_cfg: object
    beam_store: object
    pairs: list
    enc_cfg: object
    enc_store: object
    spec: object
    train_set: list
    dev_set: list
    eval_set: list
    eval_config: str


def _labeling_items(n, words, seed):
    items = []
    for ids, starts, labels in S.toy_labeling_set(n, words, TAG_VOCAB, seed=seed):
        tags = [TAGS[t % len(TAGS)] for t in ids]
        if [TAGS[lab] for lab in labels] != tags:
            raise RuntimeError("toy labeling tags no longer follow the token id")
        items.append((ids, starts, [LABELS.index(tag) for tag in tags]))
    return items


def setup(w, sz, seed, work):
    docs = S.pair_language(sz.docs, doc_len=w.doc_len, seed=seed)

    beam_cfg = P.desk_cfg(2, 2, d_model=sz.beam_d_model, dropout=0.0)
    seqs = S.patterned_sequences(sz.beam_seqs, w.beam_len, beam_cfg.vocab_size, seed=seed)
    lr = T.LrSchedule(peak=5e-3, total_steps=sz.beam_steps, warmup_steps=10, end=5e-4)
    plan = T.TrainPlan(name="overfit", model=beam_cfg, stages=[T.TrainStage(
        name="overfit", objective=T.DENOISE, steps=sz.beam_steps, lr=lr, noise=SPAN_MASK,
        batch_size=8, batch_tokens=8 * beam_cfg.max_positions)])
    beam_store, _, _ = T.run_plan(plan, seqs, seed)
    pairs = [D.denoise_corrupt(s, SPAN_MASK, np.random.default_rng(D.seed_for(seed, i)))
             for i, s in enumerate(seqs)]

    s2s_cfg = P.desk_cfg(12, 12, **sz.desk)
    enc_store = M.extract_encoder(M.init_seq2seq(s2s_cfg, seed), s2s_cfg)
    enc_cfg = replace(s2s_cfg, decoder_layers=0)
    spec = M.HeadSpec(kind="labeling", label_count=len(LABELS), hidden=[64])
    items = _labeling_items(sz.ft_train + sz.ft_dev, w.words, seed)

    # the evaluation split does not depend on the seed
    eval_set = _labeling_items(sz.ft_eval, w.words, 0)
    if sorted({LABELS[i] for _, _, labs in eval_set for i in labs}) != LABELS:
        raise RuntimeError("evaluation split must hold every tag")
    vocab = D.Vocab([f"t{i}" for i in range(D.NUM_SPECIALS, enc_cfg.vocab_size)])
    vocab.save(os.path.join(work, "vocab.json"))
    D.write_jsonl(os.path.join(work, "eval.jsonl"),
                  [{"tokens": [f"t{i}" for i in ids], "labels": [LABELS[j] for j in labs]}
                   for ids, _, labs in eval_set])
    eval_config = os.path.join(work, "evaluate.json")
    with open(eval_config, "w", encoding="utf-8") as fh:
        json.dump({"version": "1", "seed": 0, "out": os.path.join(work, "evaluate"),
                   "checkpoint": os.path.join(work, "tuned"),
                   "vocab": os.path.join(work, "vocab.json"),
                   "task": {"kind": "labeling", "eval": os.path.join(work, "eval.jsonl")},
                   "finetune": {"head_hidden": spec.hidden}}, fh)
    return Inputs(docs, beam_cfg, beam_store, pairs, enc_cfg, enc_store, spec,
                  items[:sz.ft_train], items[sz.ft_train:], eval_set, eval_config)


def setups_agree(a, b):
    msgs = []
    if a.docs != b.docs or a.pairs != b.pairs or a.train_set != b.train_set:
        msgs.append("set-up: inputs differ between repetitions")
    for what, x, y in (("generation model", a.beam_store, b.beam_store),
                       ("fine-tune encoder", a.enc_store, b.enc_store)):
        msgs += checks.same_tensors(x, y, y.names(), f"set-up {what}")
    return msgs


# ---------------------------------------------------------------------------
# one round


@dataclass
class Round:
    times: dict = field(default_factory=dict)  # metric -> list of samples
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    losses: list = field(default_factory=list)
    eval_error: str = ""

    def sample(self, name, value):
        self.times.setdefault(name, []).append(value)


def recipe_plans(sz):
    return (P.desk_plan("roberta-12e", steps_per_100k=sz.steps_per_100k, **sz.desk),
            P.desk_plan("2stage-bart-12e12d-unfrz", steps_per_100k=sz.steps_per_100k,
                        **sz.desk))


def one_step_stages(plan):
    """The same plan with every stage cut into one-step stages on the same
    learning-rate schedule, so that `on_stage_end` marks the end of each
    update.  The updates, freeze sets and TU are those of the plan."""
    return replace(plan, stages=[replace(st, steps=1, lr_offset=st.lr_offset + i)
                                 for st in plan.stages for i in range(st.steps)])


def pretrain(sz, inp, seed, work, probe, gauge, rnd):
    """Returns the seq2seq store after the unfrozen stage."""
    donor_plan, s2s_plan = recipe_plans(sz)
    recipe_s = 0.0  # the phase in reference seconds: updates and donor read-back
    donor = None

    def run(plan, phases, frozen, seed, **init):
        """Runs `plan` update by update; after each of its stages saves a
        checkpoint and a loss trace as `deskseq pretrain` does."""
        ends = np.cumsum([st.steps for st in plan.stages]) - 1
        trace, first_stage = [], None

        def hook(k, step_stage, store, opt_state, step_trace):
            nonlocal recipe_s, first_stage, mark
            t_end = now()
            j = int(np.searchsorted(ends, k))  # the plan's stage this update belongs to
            step_s = (t_end - mark) * gauge.scale()
            recipe_s += step_s
            rnd.sample(f"{phases[j]}_step_ms", step_s * 1000)
            probe.add("stage_s", t_end - mark)
            trace.extend(step_trace)
            if k == ends[j]:
                stage = plan.stages[j]
                probe.phase("ckpt")
                path = os.path.join(work, "pretrain", plan.name, f"ckpt_stage{j}")
                # checkpoint writes and checks are not timed: the writes wait
                # on the disk, whose speed the gauge cannot read (README.md)
                C.save(path, plan.model, store, opt_state=opt_state,
                       provenance={"plan": plan.name, "stage": stage.name,
                                   "stage_index": j, "seed": seed})
                D.write_jsonl(os.path.join(work, "pretrain", plan.name, f"trace_{j}.jsonl"),
                              [{"step": r["step"], "loss": repr(r["loss"])} for r in trace])
                rnd.attempted += 2
                what = f"{plan.name}/{stage.name}"
                rnd.failures.extend(checks.checkpoint_roundtrip(
                    plan.model, store, opt_state, C.load(path), f"checkpoint {what}"))
                rnd.failures.extend(checks.loss_windows(trace, what,
                                                        start=first_stage if j else None))
                if j == 0:
                    first_stage = list(trace)
                if frozen is not None:
                    rnd.failures.extend(checks.encoder_frozen(store, donor, frozen[j]))
                rnd.losses.append([r["loss"] for r in trace])
                trace.clear()
                if j + 1 < len(phases):
                    probe.phase(phases[j + 1])
                gauge.start()
            mark = now()

        probe.phase(phases[0])
        mark = now()
        store, _, _ = T.run_plan(one_step_stages(plan), inp.docs, seed, on_stage_end=hook,
                                 **init)
        return store

    gauge.start()
    run(donor_plan, ("mlm",), None, seed)
    t = now()
    _, donor, _, _ = C.load(os.path.join(work, "pretrain", donor_plan.name, "ckpt_stage0"))
    recipe_s += (now() - t) * gauge.scale()
    store = run(s2s_plan, ("frozen", "unfrozen"), (True, False), seed + 1, donor=donor)
    rnd.sample("recipe2_s", recipe_s)
    return store


def generate(w, sz, inp, probe, gauge, rnd):
    gc = E.GenConfig(beam_size=3, max_len=w.beam_len + 4)
    probe.phase("beam")
    hyps = []
    gauge.start()
    for src, _ in inp.pairs:
        t = now()
        hyp = E.beam_search(inp.beam_cfg, inp.beam_store, src, gc)
        dt = now() - t
        rnd.sample("beam_token_ms", dt * 1000 / (len(hyp) + 1) * gauge.scale())
        probe.add("generated_tokens", len(hyp) + 1)
        hyps.append(hyp)
    rnd.attempted += len(inp.pairs)
    rnd.failures.extend(checks.beam_outputs(hyps, [tgt for _, tgt in inp.pairs]))
    probe.phase("score")
    gauge.start()
    for _ in range(sz.score_reps):
        t = now()
        ppl = E.perplexity(inp.beam_cfg, inp.beam_store, inp.pairs)
        dt = now() - t
        rnd.sample("score_pair_ms", dt * 1000 / len(inp.pairs) * gauge.scale())
        probe.add("pairs", len(inp.pairs))
    rnd.attempted += sz.score_reps
    return ppl


def finetune(w, sz, inp, ft_seed, work, probe, gauge, rnd):
    fcfg = E.FinetuneConfig(peak_lr=1e-3, warmup_steps=2, batch_size=16, epochs=sz.ft_epochs,
                            head_hidden=inp.spec.hidden)
    probe.phase("ft")
    best, record = E.finetune_classifier(inp.enc_cfg, inp.enc_store, inp.spec, inp.train_set,
                                         inp.dev_set, fcfg, ft_seed)
    # pairs of one-epoch runs weigh the parts differently: every update with
    # a one-item dev set, and a single update followed by a full dev
    # evaluation; solving each pair's timings for (seconds per update,
    # seconds per dev item) splits them
    timing = replace(fcfg, epochs=1)
    gauge.start()
    for _ in range(sz.ft_timing_pairs):
        runs = []
        for dev, cfg in ((inp.dev_set[:1], timing),
                         (inp.dev_set, replace(timing, max_updates=1))):
            t = now()
            _, rec = E.finetune_classifier(inp.enc_cfg, inp.enc_store, inp.spec,
                                           inp.train_set, dev, cfg, ft_seed)
            dt = now() - t
            runs.append((dt * gauge.scale(), rec["updates"], len(rec["epochs"]) * len(dev)))
        (t1, u1, i1), (t2, u2, i2) = runs
        det = u1 * i2 - i1 * u2
        rnd.sample("ft_update_ms", (t1 * i2 - i1 * t2) / det * 1000)
        rnd.sample("dev_eval_item_ms", (u1 * t2 - u2 * t1) / det * 1000)
    rnd.attempted += 1 + 2 * sz.ft_timing_pairs

    probe.phase("check")
    rnd.failures.extend(checks.same_tensors(best, inp.enc_store, ["embed.tok", "embed.pos"],
                                            "fine-tune frozen embeddings"))
    own = checks.dev_accuracy(checks.head_predictions(inp.enc_cfg, best, inp.spec,
                                                      inp.dev_set), inp.dev_set)
    floor = accuracy_floor(w.words) if sz.check_floor else 0.0
    rnd.failures.extend(checks.accuracy_matches(record["best"], own, floor))

    probe.phase("eval")
    C.save(os.path.join(work, "tuned"), inp.enc_cfg, best,
           provenance={"task": "labeling", "seed": ft_seed, "metric": record["metric"]})
    rnd.attempted += 1
    try:
        code = cli.main(["evaluate", "--config", inp.eval_config])
    except Exception as exc:  # the program's fault is counted, not fatal
        rnd.failed += 1
        rnd.eval_error = f"{type(exc).__name__}: {exc}"
        return
    if code != 0:
        rnd.failed += 1
        rnd.eval_error = f"exit code {code}"
        return
    with open(os.path.join(work, "evaluate", "eval_summary.json"), encoding="utf-8") as fh:
        reported = float(json.load(fh)["metric"])
    preds = checks.head_predictions(inp.enc_cfg, best, inp.spec, inp.eval_set)
    rnd.failures.extend(checks.f1_matches(reported, checks.own_entity_f1(
        [[LABELS[i] for i in p] for p in preds],
        [[LABELS[i] for i in labs] for _, _, labs in inp.eval_set])))


def journey_round(w, sz, inp, seed, r, work, probe, gauge):
    """Returns (Round, seq2seq store after pre-training, last perplexity,
    wall seconds taken, reference seconds taken without the gauge)."""
    rnd = Round()
    t, spent, mark = now(), gauge.spent, len(gauge.readings)
    s2s_store = pretrain(sz, inp, seed, work, probe, gauge, rnd)
    ppl = generate(w, sz, inp, probe, gauge, rnd)
    finetune(w, sz, inp, seed * 100 + r, work, probe, gauge, rnd)
    probe.phase("check")
    wall = now() - t
    return rnd, s2s_store, ppl, wall, (wall - (gauge.spent - spent)) * gauge.scale_since(mark)


# ---------------------------------------------------------------------------
# checks made once per run


def gradient_check(sz, inp, seed, s2s_store):
    """`autograd.backward` against central finite differences at one
    de-noising step of the pre-trained seq2seq model."""
    _, plan = recipe_plans(sz)
    rngs = [np.random.default_rng(D.seed_for(seed, 50 + i)) for i in range(2)]
    src, src_mask, dec_in, labels = T.make_denoise_batch(inp.docs[:2], plan.stages[0].noise,
                                                         rngs)

    def loss_fn():
        return T.denoise_step_loss(plan.model, s2s_store, src, src_mask, dec_in, labels)

    analytic = checks.analytic_gradients(loss_fn, s2s_store, FD_TENSORS)
    return checks.fd_mismatches(loss_fn, s2s_store, analytic, np.random.default_rng(seed))


def final_checks(sz, inp, seed, ppl):
    msgs = []
    for plan in recipe_plans(sz):
        msgs += checks.tu_matches(plan, cost.tu_cost(plan))

    # beam search against exhaustive search, and perplexity against own NLL
    msgs += checks.perplexity_matches(ppl, checks.own_perplexity(inp.beam_cfg, inp.beam_store,
                                                                inp.pairs), "overfit model")
    rng = np.random.default_rng(seed)
    for k in range(3):
        tiny = M.ModelConfig(encoder_layers=1, decoder_layers=1, d_model=8, d_ffn=16, heads=2,
                             vocab_size=8, max_positions=8)
        store = M.init_seq2seq(tiny, int(rng.integers(2**31)))
        src = rng.integers(1, tiny.vocab_size, size=4).tolist()
        for max_len in (1, 2):
            gc = E.GenConfig(beam_size=tiny.vocab_size, max_len=max_len)
            msgs += checks.exhaustive_matches(
                E.beam_search(tiny, store, src, gc),
                checks.exhaustive_best(tiny, store, src, max_len), f"tiny model {k}")
        tgt = rng.integers(D.NUM_SPECIALS, tiny.vocab_size, size=3).tolist()
        msgs += checks.perplexity_matches(E.perplexity(tiny, store, [(src, tgt)]),
                                          checks.own_perplexity(tiny, store, [(src, tgt)]),
                                          f"tiny model {k}")
    return msgs


# ---------------------------------------------------------------------------
# a run


def run(name, seed, seconds, trace, work, sizes=Sizes()):
    """Set up `setup_repeats` times, then run whole rounds for `seconds`
    (at least one).  With `trace`, the first round runs bare and the rest
    under timing wrappers.  Returns (result dict, notes for stderr)."""
    w = WORKLOADS[name]
    gauge = Gauge()
    durations, first = [], None
    failures = []
    for _ in range(sizes.setup_repeats):
        gauge.start()
        t = now()
        inp = setup(w, sizes, seed, work)
        durations.append((now() - t) * gauge.scale())
        if first is None:
            first = inp
        else:
            failures += setups_agree(inp, first)
    del first

    tracer = tracing.Probe() if trace else None
    probe = NoProbe()
    rounds, round_s, round_ref = [], [], []
    start = now()
    try:
        # a traced run needs one bare round and at least one traced round
        while len(rounds) < 1 + bool(trace) or now() - start + statistics.mean(round_s) <= seconds:
            if tracer is not None and len(rounds) == 1:
                tracer.install()
                probe = tracer
            rnd, store, ppl, dt, ref = journey_round(w, sizes, inp, seed, len(rounds), work,
                                                     probe, gauge)
            if not rounds:
                # checked now, so that no round holds two models: checking is
                # not measuring, and the clock skips it
                t = now()
                failures += gradient_check(sizes, inp, seed, store)
                start += now() - t
            del store
            rounds.append(rnd)
            round_s.append(dt)
            round_ref.append(ref)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for rnd in rounds:
        failures += rnd.failures
        if rnd.losses != rounds[0].losses:
            failures.append("pre-training losses differ between rounds of one seed")
    failures += final_checks(sizes, inp, seed, ppl)

    result = {"correct": not failures,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds)}
    if trace:
        bare, traced = round_ref[0], statistics.median(round_ref[1:])
        result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                             for k, v in tracer.metrics(100 * (traced - bare) / bare).items()}
    else:
        values = {"setup_s": statistics.median(durations),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        for metric in END_TO_END:
            if metric not in values:
                values[metric] = statistics.median(
                    [v for r in rounds for v in r.times[metric]])
        result["metrics"] = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    notes = failures + sorted({f"counted as failed: deskseq evaluate: {r.eval_error}"
                               for r in rounds if r.eval_error})
    notes.append(f"gauge: median reading {statistics.median(gauge.readings) * 1000:.3f} ms "
                 f"of {len(gauge.readings)}; figures are at {REFERENCE_MS} ms")
    return result, notes


def unit_of(metric):
    if metric.endswith("_ms") or ".fwd_ms." in metric or ".bwd_ms." in metric:
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"
