"""Top-level acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or on failure) with its wall-clock time.
"""

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

import deskseq
from deskseq import autograd as ag
from deskseq import cli
from deskseq import data as D
from deskseq import evalft as E
from deskseq import model as M
from deskseq import presets as P
from deskseq import synth as S
from deskseq import train as T
from deskseq.autograd import IGNORE, Tensor
from deskseq.optim import OptimState, adam_step

from conftest import finite_diff_check, square, traced_peak_mib
from test_cli import INLINE_PLAN, make_classification_task, tree_bytes, write_config
from test_evalft import _exhaustive_best


@contextlib.contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"{name} exceeded {budget_s}s budget: {elapsed:.1f}s"


def test_compute_cost_reproduction(capsys):
    with criterion("compute-cost-reproduction", 1.0):
        assert cli.main(["cost", "--table1"]) == 0
        out = capsys.readouterr().out
        with capsys.disabled():
            expected = {
                "roberta-12e": "5.0", "bart-12e12d": "10.0",
                "bart-12e12d-mask": "10.0", "bart-12e2d": "5.8",
                "bart-12e2d-mask": "5.8", "bart-12e1d-mask": "5.4",
                "bart-12e12d+mlm": "11.0", "2stage-bart-12e12d": "12.5",
                "2stage-bart-12e12d-attn-f": "12.5",
                "2stage-bart-12e12d-unfrz": "11.0",
            }
            for name, total in expected.items():
                row = next(l for l in out.splitlines() if l.startswith(name + " "))
                assert row.rstrip().endswith(total), (name, row)
            assert "2stage-bart-12e12d: 12.5 TU, saves 17% vs baseline 15.0 TU" in out
            assert "2stage-bart-12e12d-unfrz: 11.0 TU, saves 27% vs baseline 15.0 TU" in out


def test_gradient_suite():
    with criterion("gradient-suite", 300.0):
        # every differentiable primitive, 20 seeds
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
            x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
            g = Tensor(rng.normal(size=5), requires_grad=True)
            b = Tensor(rng.normal(size=5), requires_grad=True)
            emb = Tensor(rng.normal(size=(9, 6)), requires_grad=True)
            ids = rng.integers(0, 9, size=(3,))
            labels = rng.integers(0, 5, size=3)
            labels[rng.integers(3)] = IGNORE
            mix_w = Tensor(rng.normal(size=3), requires_grad=True)

            def make_loss():
                h = ag.embedding(emb, ids)
                h = ag.add(h, x)
                h = ag.gelu(h)
                h = ag.matmul(h, w)
                h = ag.layer_norm(h, g, b)
                h = ag.mix([h, ag.scale(h, 0.5), square(h)], ag.softmax(mix_w))
                return ag.softmax_cross_entropy(h, labels)

            finite_diff_check(make_loss, [w, x, g, b, emb, mix_w], rng,
                              samples_per_tensor=3)
        # a full 2-layer encoder + 2-layer decoder model
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            cfg = M.ModelConfig(encoder_layers=2, decoder_layers=2, d_model=8,
                                d_ffn=16, heads=2, vocab_size=32, max_positions=16)
            store = M.init_seq2seq(cfg, seed)
            src = rng.integers(6, 32, size=(2, 5))
            tgt = rng.integers(6, 32, size=(2, 4))
            labels = rng.integers(0, 32, size=8)

            def model_loss():
                states = M.encoder_forward(cfg, store, src)
                logits = M.decoder_forward(cfg, store, tgt, states)
                return ag.softmax_cross_entropy(
                    ag.reshape(logits, (-1, cfg.vocab_size)), labels)

            store.zero_grad()
            finite_diff_check(model_loss, [t for _, t in store.unique_items()],
                              rng, samples_per_tensor=1)


def test_tying_and_freezing_suite():
    with criterion("tying-and-freezing", 60.0):
        enc_cfg = M.ModelConfig(encoder_layers=2, decoder_layers=0, d_model=8,
                                d_ffn=16, heads=2, vocab_size=32, max_positions=16)
        s2s_cfg = M.ModelConfig(encoder_layers=2, decoder_layers=2, d_model=8,
                                d_ffn=16, heads=2, vocab_size=32, max_positions=16)
        donor = M.init_mlm_encoder(enc_cfg, 0)
        store = M.warm_start_seq2seq(donor, s2s_cfg, 1)
        # warm start: shared embedding, untied output head initialized from it
        assert ["dec.embed.tok", "embed.tok"] in store.tie_groups()
        assert store["lm_head.w"] is not store["embed.tok"]
        np.testing.assert_array_equal(store["lm_head.w"].data, store["embed.tok"].data)
        for name, _, _ in M.encoder_layout(s2s_cfg):
            np.testing.assert_array_equal(store[name].data, donor[name].data)
        # extraction: fresh untied token-prediction head copied from embedding
        enc = M.extract_encoder(M.init_seq2seq(s2s_cfg, 2), enc_cfg)
        assert enc["mlm_head.w"] is not enc["embed.tok"]
        np.testing.assert_array_equal(enc["mlm_head.w"].data, enc["embed.tok"].data)
        assert not [n for n in enc.names() if n.startswith(("dec.", "lm_head."))]
        # frozen stage leaves every frozen parameter bit-identical
        rng = np.random.default_rng(0)
        seqs = [list(rng.integers(6, 32, size=10)) for _ in range(8)]
        frozen_stage = T.TrainStage(
            name="frz", objective=T.DENOISE, steps=4,
            lr=T.LrSchedule(peak=1e-3, total_steps=4), freeze=("Encoder",),
            noise=D.NoiseConfig(mode=D.SPAN_MASK), batch_size=4)
        before = {n: store[n].data.copy() for n in store.names()}
        opt = OptimState()
        T.run_stage(s2s_cfg, store, seqs, frozen_stage, seed=5, opt_state=opt)
        for n in store.names():
            if n.startswith(("enc.", "embed.")) or n == "dec.embed.tok":
                np.testing.assert_array_equal(store[n].data, before[n])
            elif n.startswith("dec.") and n.endswith(".wq"):
                assert not np.array_equal(store[n].data, before[n])
        # unfreeze boundary: newly trainable parameters join with zero moments
        assert "dec.embed.tok" not in opt.slots
        open_stage = T.TrainStage(
            name="unfrz", objective=T.DENOISE, steps=2,
            lr=T.LrSchedule(peak=1e-3, total_steps=2),
            noise=D.NoiseConfig(mode=D.SPAN_MASK), batch_size=4)
        T.run_stage(s2s_cfg, store, seqs, open_stage, seed=6, opt_state=opt)
        assert opt.slots["dec.embed.tok"]["t"] == 2
        assert opt.slots["dec.0.self.wq"]["t"] == 6


def test_corruption_statistics():
    with criterion("corruption-statistics", 120.0):
        n_tokens = 100_000
        sel_rates, mask_rates, rand_rates, keep_rates = [], [], [], []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            ids = rng.integers(6, 5000, size=n_tokens)
            nc = D.NoiseConfig(mode=D.MLM_MASK)
            out, labels = D.mlm_corrupt(ids, nc, rng, vocab_size=5000)
            sel = labels != IGNORE
            sel_rates.append(sel.mean())
            mask_rates.append((out[sel] == D.MASK).mean())
            changed = sel & (out != ids)
            rand_rates.append((changed & (out != D.MASK)).sum() / sel.sum())
        assert abs(np.mean(sel_rates) - 0.15) < 0.01
        assert abs(np.mean(mask_rates) - 0.80) < 0.02
        # the random 10% occasionally re-draws the original token, so the
        # observed random-replacement rate sits just below 0.10
        assert abs(np.mean(rand_rates) - 0.10) < 0.02

        span_fracs, span_lengths = [], []
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            nc = D.NoiseConfig(mode=D.SPAN_MASK)
            covered = total = 0
            for i in range(n_tokens // 500):
                ids = list(rng.integers(6, 256, size=500))
                log = D._draw_spans(ids, nc, rng)
                src, tgt = D._apply_spans(ids, nc, log)
                assert tgt == ids  # target always equals the original
                covered += sum(e - s for s, e in log)
                total += len(ids)
                span_lengths.extend(e - s for s, e in log)
            span_fracs.append(covered / total)
        assert abs(np.mean(span_fracs) - 0.15) < 0.02
        assert 2.6 < np.mean(span_lengths) < 3.4


def test_fusion_degeneracy():
    with criterion("fusion-degeneracy", 60.0):
        fusion_cfg = M.ModelConfig(encoder_layers=2, decoder_layers=2, d_model=16,
                                   d_ffn=32, heads=4, vocab_size=48,
                                   max_positions=16, cross_attention=M.FUSION)
        std_cfg = M.ModelConfig(**{**asdict(fusion_cfg),
                                   "cross_attention": M.STANDARD})
        for seed in range(10):
            rng = np.random.default_rng(seed)
            fstore = M.init_seq2seq(fusion_cfg, seed)
            sstore = M.init_seq2seq(std_cfg, 1000 + seed)
            for name in sstore.names():
                sstore[name].data[:] = fstore[name].data
            for i in range(fusion_cfg.decoder_layers):
                fstore[f"fusion.{i}"].data[:] = M.NEG_INF
                fstore[f"fusion.{i}"].data[-1] = 0.0
            src = rng.integers(6, 48, size=(2, 6))
            tgt = rng.integers(6, 48, size=(2, 5))
            a = M.decoder_forward(fusion_cfg, fstore, tgt,
                                  M.encoder_forward(fusion_cfg, fstore, src)).data
            b = M.decoder_forward(std_cfg, sstore, tgt,
                                  M.encoder_forward(std_cfg, sstore, src)).data
            np.testing.assert_array_equal(a, b)


def overfit_plan(objective, *, steps=2000, enc=2, dec=2, vocab_size=256,
                 d_model=64, batch_size=8, peak_lr=1e-3):
    """Tiny-corpus overfit plan: capacity deliberately exceeds corpus entropy."""
    cfg = P.desk_cfg(enc, 0 if objective == T.MLM else dec, vocab_size=vocab_size,
                     d_model=d_model, dropout=0.0)
    lr = T.LrSchedule(peak=peak_lr, total_steps=steps, warmup_steps=100, end=1e-4)
    noise = P.MASK_NOISE if objective == T.DENOISE else None
    stage = T.TrainStage(name="overfit", objective=objective, steps=steps, lr=lr,
                         noise=noise, batch_size=batch_size,
                         batch_tokens=batch_size * cfg.max_positions)
    return T.TrainPlan(name=f"overfit-{objective}", model=cfg, stages=[stage])


def test_overfit_runs():
    with criterion("overfit-runs", 600.0):
        seqs = S.patterned_sequences(64, 32, 256, seed=0)
        mlm_plan = overfit_plan(T.MLM)
        _, traces, _ = T.run_plan(mlm_plan, seqs, seed=0)
        final = np.mean([r["loss"] for r in traces[0][-50:]])
        assert final < 0.1, f"masked-token loss stuck at {final:.3f}"

        den_plan = overfit_plan(T.DENOISE)
        store, traces, _ = T.run_plan(den_plan, seqs, seed=0)
        assert traces[0][-1]["loss"] < 0.1
        nc = den_plan.stages[0].noise
        gc = E.GenConfig(beam_size=3, max_len=40)
        for i, seq in enumerate(seqs):
            rng = np.random.default_rng(D.seed_for(999, i))
            src, tgt = D.denoise_corrupt(seq, nc, rng)
            hyp = E.beam_search(den_plan.model, store, src, gc)
            assert hyp == tgt, f"sequence {i} not reconstructed exactly"


def test_warm_desk_updates_fault_no_heap_pages():
    """Desk 12+12 unfrozen updates run as one-step stages, as perfbench runs
    them: once 2 have warmed the heap, 3 more fault fewer than 1,000 pages in
    all.  Without `train_step`'s fixed malloc thresholds, a fresh process
    took about 5,000 minor faults per update."""
    with criterion("warm-desk-updates-fault-no-heap-pages", 10.0):
        plan = P.desk_plan("2stage-bart-12e12d-unfrz")
        stage = replace(plan.stages[-1], steps=1)
        docs = S.pair_language(64, doc_len=24, seed=0)
        store, opt = M.init_seq2seq(plan.model, 0), OptimState()
        faults = []
        for k in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            T.run_stage(plan.model, store, docs, replace(stage, lr_offset=k), seed=k,
                        opt_state=opt)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert sum(faults[2:]) < 1000, faults


def _warm_desk_update_traced_peak(stage_index):
    """The traced peak, in MiB, of one desk 12+12 update of the given stage
    on 24-token documents, run as `test_warm_desk_updates_fault_no_heap_pages`
    runs them, once 2 have warmed up."""
    plan = P.desk_plan("2stage-bart-12e12d-unfrz")
    stage = replace(plan.stages[stage_index], steps=1)
    docs = S.pair_language(64, doc_len=24, seed=0)
    store, opt = M.init_seq2seq(plan.model, 0), OptimState()

    def update(k):
        T.run_stage(plan.model, store, docs, replace(stage, lr_offset=k), seed=k, opt_state=opt)
    update(0)
    update(1)
    return traced_peak_mib(lambda: update(2))


def test_warm_desk_update_traced_peak():
    """One warm desk 12+12 unfrozen update on 24-token documents: its traced
    allocations peak under 46 MiB.  It measured 40.0 MiB (the budget leaves
    15%), and the whole test 0.4 s (the budget leaves 5x).  Tape nodes that
    held their inputs' values until backward peaked at 60.8 MiB, and a
    backward that also held every node until it returned at 103.7 MiB."""
    with criterion("warm-desk-update-traced-peak", 2.0):
        peak = _warm_desk_update_traced_peak(-1)
        assert peak < 46.0, f"{peak:.1f} MiB"


def test_warm_desk_frozen_update_traced_peak():
    """The same for a frozen-encoder update: under 31.3 MiB.  It measured
    27.2 MiB (the budget leaves 15%), and 40.4 MiB with tape nodes that held
    their inputs' values."""
    with criterion("warm-desk-frozen-update-traced-peak", 2.0):
        peak = _warm_desk_update_traced_peak(0)
        assert peak < 31.3, f"{peak:.1f} MiB"


# one warm desk 12+12 unfrozen update, as `_warm_desk_update_traced_peak`
# runs it: the sha256 of the arena's values and the last loss
_WARM_UPDATE_SHA256 = """
import hashlib
from dataclasses import replace
from deskseq import model as M, presets as P, synth as S, train as T
from deskseq.optim import OptimState
plan = P.desk_plan("2stage-bart-12e12d-unfrz")
stage = replace(plan.stages[-1], steps=1)
docs = S.pair_language(64, doc_len=24, seed=0)
store, opt = M.init_seq2seq(plan.model, 0), OptimState()
for k in range(3):
    trace = T.run_stage(plan.model, store, docs, replace(stage, lr_offset=k), seed=k,
                        opt_state=opt)
print(hashlib.sha256(store.arena().data.tobytes() + repr(trace[-1]["loss"]).encode()).hexdigest())
"""


def test_warm_desk_update_bytes_do_not_depend_on_blas_threads():
    """The same warm desk update at one and at two OpenBLAS threads gives the
    same arena bytes: its GEMMs and its GEMV row sums split no sum by thread
    count at these sizes (`autograd`'s docstring)."""
    with criterion("warm-desk-update-blas-threads", 60.0):
        src = os.path.dirname(os.path.dirname(os.path.abspath(deskseq.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", _WARM_UPDATE_SHA256], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1], digests


def test_two_stage_unfreeze_direction():
    with criterion("two-stage-unfreeze-direction", 1800.0):
        nc = D.NoiseConfig(mode=D.SPAN_MASK)
        enc_cfg = P.desk_cfg(2, 0, dropout=0.0)
        s2s_cfg = P.desk_cfg(2, 2, dropout=0.0)
        wins = 0
        for seed in range(5):
            docs = S.pair_language(96, alphabet=32, doc_len=24, seed=100 + seed)
            train, held = docs[:64], docs[64:]
            donor_plan = T.TrainPlan(name="donor", model=enc_cfg, stages=[
                T.TrainStage(name="mlm", objective=T.MLM, steps=200,
                             lr=T.LrSchedule(peak=1e-3, total_steps=200,
                                             warmup_steps=20, end=1e-4),
                             noise=D.NoiseConfig(mode=D.MLM_MASK))])
            donor, _, _ = T.run_plan(donor_plan, train, seed=seed)
            shared = T.LrSchedule(peak=1e-3, total_steps=400, warmup_steps=40,
                                  end=1e-4)
            frz = T.TrainPlan(name="frz", model=s2s_cfg,
                              init=T.PlanInit("warm_start"), stages=[
                T.TrainStage(name="frz", objective=T.DENOISE, steps=400,
                             lr=shared, noise=nc, freeze=("Encoder",))])
            unf = T.TrainPlan(name="unf", model=s2s_cfg,
                              init=T.PlanInit("warm_start"), stages=[
                T.TrainStage(name="frz", objective=T.DENOISE, steps=200,
                             lr=shared, noise=nc, freeze=("Encoder",)),
                T.TrainStage(name="unfrz", objective=T.DENOISE, steps=200,
                             lr=shared, noise=nc, lr_offset=200)])
            eval_pairs = []
            for i, doc in enumerate(held):
                rng = np.random.default_rng(D.seed_for(7, i))
                eval_pairs.append(D.denoise_corrupt(doc, nc, rng))
            losses = {}
            for plan in (frz, unf):
                store, _, _ = T.run_plan(plan, train, seed=seed, donor=donor.copy())
                losses[plan.name] = T.eval_denoise_loss(s2s_cfg, store, eval_pairs)
            wins += losses["unf"] <= losses["frz"]
        assert wins >= 4, f"unfreezing helped in only {wins}/5 seeds"


ENTITY_F1_GOLDENS = [
    ([["O"]], [["O"]], (0.0, 0.0, 0.0)),
    ([["B-X"]], [["B-X"]], (1.0, 1.0, 1.0)),
    ([["B-X"]], [["O"]], (0.0, 0.0, 0.0)),
    ([["O"]], [["B-X"]], (0.0, 0.0, 0.0)),
    ([["B-X", "O", "B-X"]], [["B-X", "O", "B-Y"]], (0.5, 0.5, 0.5)),
    ([["B-X", "I-X"]], [["B-X", "I-X"]], (1.0, 1.0, 1.0)),
    ([["B-X", "I-X"]], [["B-X", "O"]], (0.0, 0.0, 0.0)),
    ([["B-X", "B-X"]], [["B-X", "I-X"]], (0.0, 0.0, 0.0)),
    ([["I-X", "I-X"]], [["B-X", "I-X"]], (1.0, 1.0, 1.0)),
    ([["I-X", "B-X"]], [["B-X", "B-X"]], (1.0, 1.0, 1.0)),
    ([["B-X", "I-Y"]], [["B-X", "B-Y"]], (1.0, 1.0, 1.0)),
    ([["B-X", "I-Y"]], [["B-X", "I-X"]], (0.0, 0.0, 0.0)),
    ([["O", "I-X"]], [["O", "B-X"]], (1.0, 1.0, 1.0)),
    ([["B-X", "I-X", "I-X"]], [["B-X", "I-X", "I-X"]], (1.0, 1.0, 1.0)),
    ([["B-X", "O", "O"]], [["B-X", "B-Y", "O"]], (1.0, 0.5, 2 / 3)),
    ([["B-X", "B-Y", "O"]], [["B-X", "O", "O"]], (0.5, 1.0, 2 / 3)),
    ([["B-X"], ["O"]], [["B-X"], ["B-Y"]], (1.0, 0.5, 2 / 3)),
    ([["B-PER", "I-PER", "O", "B-LOC", "I-LOC"]],
     [["B-PER", "I-PER", "O", "B-LOC", "I-LOC"]], (1.0, 1.0, 1.0)),
    ([["B-PER", "I-PER", "O", "B-LOC", "I-LOC"]],
     [["B-PER", "I-PER", "O", "B-LOC", "O"]], (0.5, 0.5, 0.5)),
    ([["B-X", "I-X", "B-X"]], [["B-X", "I-X", "B-X"]], (1.0, 1.0, 1.0)),
]


def test_metric_oracles():
    with criterion("metric-oracles", 60.0):
        assert len(ENTITY_F1_GOLDENS) == 20
        for pred, gold, expect in ENTITY_F1_GOLDENS:
            got = E.entity_f1(pred, gold)
            assert np.allclose(got, expect, atol=1e-12), (pred, gold, got, expect)
        # exact-match and overlap goldens
        assert E.sciem("A bC ", "ab c")
        assert not E.sciem("abc", "abd")
        r1, r2, rl = E.rouge("the cat", "the cat sat")
        assert abs(r1 - 0.8) < 1e-12 and abs(r2 - 2 / 3) < 1e-12 and abs(rl - 0.8) < 1e-12
        assert E.rouge("same text", "same text") == (1.0, 1.0, 1.0)
        assert E.rouge("a b", "c d") == (0.0, 0.0, 0.0)
        # beam search equals exhaustive enumeration on toy models
        cfg = M.ModelConfig(encoder_layers=1, decoder_layers=1, d_model=8,
                            d_ffn=16, heads=2, vocab_size=10, max_positions=16)
        gc = E.GenConfig(beam_size=cfg.vocab_size, max_len=3)
        for seed in range(5):
            store = M.init_seq2seq(cfg, seed)
            got = E.beam_search(cfg, store, [6, 7, 8], gc)
            want = _exhaustive_best(cfg, store, [6, 7, 8], gc.max_len)
            assert got == want, f"seed {seed}: {got} != {want}"


def test_determinism(tmp_path):
    with criterion("determinism", 300.0):
        # cost
        for d in ("c1", "c2"):
            assert cli.main(["cost", "--table1", "--out", str(tmp_path / d)]) == 0
        assert tree_bytes(tmp_path / "c1") == tree_bytes(tmp_path / "c2")
        # pack
        corpus = tmp_path / "corpus.jsonl"
        D.write_jsonl(corpus, [{"text": "a b c d e", "lang": "en"},
                               {"text": "f g h", "lang": "fr"}])
        for d in ("p1", "p2"):
            cfgp = write_config(tmp_path / f"{d}.json",
                                {"corpus": str(corpus),
                                 "out": str(tmp_path / d), "target_len": 4})
            assert cli.main(["pack", "--config", cfgp]) == 0
        assert tree_bytes(tmp_path / "p1") == tree_bytes(tmp_path / "p2")
        # pretrain
        for d in ("t1", "t2"):
            cfgp = write_config(tmp_path / f"pt_{d}.json", {
                "seed": 11, "out": str(tmp_path / d), "plan": INLINE_PLAN,
                "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12,
                           "vocab_size": 64}})
            assert cli.main(["pretrain", "--config", cfgp]) == 0
        assert tree_bytes(tmp_path / "t1") == tree_bytes(tmp_path / "t2")
        # finetune + evaluate
        base = make_classification_task(tmp_path)
        for d in ("f1", "f2"):
            cfgp = write_config(tmp_path / f"ft_{d}.json", {
                "seed": 0, "out": str(tmp_path / d), **base,
                "finetune": {"epochs": 1, "max_updates": 4, "batch_size": 8,
                             "dropout": 0.0, "head_hidden": [8]}})
            assert cli.main(["finetune", "--config", cfgp]) == 0
        assert tree_bytes(tmp_path / "f1") == tree_bytes(tmp_path / "f2")
        for d in ("e1", "e2"):
            cfgp = write_config(tmp_path / f"ev_{d}.json", {
                "seed": 0, "out": str(tmp_path / d), **base,
                "checkpoint": str(tmp_path / "f1" / "tuned_seed0"),
                "finetune": {"head_hidden": [8]}})
            assert cli.main(["evaluate", "--config", cfgp]) == 0
        assert tree_bytes(tmp_path / "e1") == tree_bytes(tmp_path / "e2")
