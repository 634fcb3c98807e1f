"""Self-tests of the benchmark: every workload at a tiny size, and every
correctness check fed a deliberately wrong output.  Takes about half a minute:

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's default test collection.)
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np
import pytest

import checks
import gauge
import journey
from deskseq import checkpoint as C
from deskseq import cost
from deskseq import evalft as E
from deskseq import model as M
from deskseq import presets as P
from deskseq import train as T

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = journey.Sizes(docs=16, steps_per_100k=2, desk={"d_model": 16, "d_ffn": 32, "heads": 2},
                     beam_d_model=32, beam_seqs=4, beam_steps=100, score_reps=1, ft_train=48,
                     ft_dev=8, ft_eval=4, ft_epochs=2, ft_timing_pairs=2, setup_repeats=2,
                     check_floor=False)
# per round: 3 stages + 3 checkpoints, `beam_seqs` searches, `score_reps` scorings,
# the checked fine-tune and `ft_timing_pairs` pairs of timing fine-tunes, and
# one `deskseq evaluate`
OPS_PER_ROUND = 6 + TINY.beam_seqs + TINY.score_reps + 1 + 2 * TINY.ft_timing_pairs + 1

SMALL = M.ModelConfig(encoder_layers=1, decoder_layers=1, d_model=8, d_ffn=16, heads=2,
                      vocab_size=8, max_positions=8)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace, tmp_path):
    result, notes = journey.run(workload, 3, 0.0, trace, str(tmp_path), TINY)
    assert result["correct"], notes
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    rounds = result["attempted"] // OPS_PER_ROUND
    assert result["attempted"] == rounds * OPS_PER_ROUND and rounds == 1 + trace
    assert result["failed"] in (0, rounds)  # deskseq evaluate fails in every round or none
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_beam_check_catches_a_perturbed_hypothesis():
    targets = [[6, 7, 8], [9, 10]]
    assert checks.beam_outputs([list(t) for t in targets], targets) == []
    assert checks.beam_outputs([[6, 7, 8], [9, 11]], targets)


def _warm_started():
    enc_cfg = replace(SMALL, decoder_layers=0)
    donor = M.init_mlm_encoder(enc_cfg, 0)
    return donor, M.warm_start_seq2seq(donor, SMALL, 1)


def test_frozen_check_catches_a_moved_tensor():
    donor, store = _warm_started()
    assert checks.encoder_frozen(store, donor, frozen=True) == []
    assert checks.encoder_frozen(store, donor, frozen=False)  # nothing moved yet
    store["enc.0.ffn.w1"].data[0, 0] += 1e-12
    assert checks.encoder_frozen(store, donor, frozen=True)
    assert checks.same_tensors(store, donor, ["enc.0.ffn.w1"], "fine-tune")


def test_loss_window_check_catches_a_rising_loss():
    falling = [{"loss": v} for v in (5.0, 4.9, 4.7, 4.6, 4.6, 4.5)]
    assert checks.loss_windows(falling, "stage") == []
    assert checks.loss_windows(falling[::-1], "stage")
    spiked = [{"loss": v} for v in (4.5, 4.5, 4.9, 4.8, 4.7, 4.6)]
    assert checks.loss_windows(spiked, "unfrozen")
    assert checks.loss_windows(spiked, "unfrozen", start=falling) == []
    assert checks.loss_windows(spiked, "unfrozen", start=[{"loss": 4.0}, {"loss": 4.1}])


def test_tu_check_catches_a_wrong_charge():
    plan = P.desk_plan("2stage-bart-12e12d-unfrz", steps_per_100k=4)
    # 8 frozen steps charge 12/2 + 12 layers, 6 unfrozen steps 24; hidden 64,
    # 8 x 80 batch tokens
    assert checks.own_tu(plan) == Fraction((18 * 8 + 24 * 6) * 64 * 640,
                                           12 * 100_000 * 1024 * 1_000_000)
    good = cost.tu_cost(plan)
    assert checks.tu_matches(plan, good) == []
    good.stages[0].encoder_tu *= 2  # a frozen encoder charged in full
    assert checks.tu_matches(plan, good)


def test_checkpoint_check_catches_a_changed_tensor(tmp_path):
    _, store = _warm_started()
    C.save(str(tmp_path), SMALL, store)
    assert checks.checkpoint_roundtrip(SMALL, store, None, C.load(str(tmp_path)), "ckpt") == []
    loaded = C.load(str(tmp_path))
    loaded[1]["dec.0.cross.wk"].data[1, 1] *= -1
    assert checks.checkpoint_roundtrip(SMALL, store, None, loaded, "ckpt")
    loaded = C.load(str(tmp_path))
    loaded[1].set_trainable("lm_head.b", False)
    assert checks.checkpoint_roundtrip(SMALL, store, None, loaded, "ckpt")


def test_gradient_check_catches_a_wrong_gradient():
    _, store = _warm_started()
    src = np.array([[6, 7, 3, 5]])
    dec_in, labels = np.array([[1, 6, 7]]), np.array([[6, 7, 2]])

    def loss_fn():
        return T.denoise_step_loss(SMALL, store, src, src != 0, dec_in, labels)

    names = ["embed.tok", "enc.0.attn.wq", "dec.0.cross.wv", "lm_head.w"]
    grads = checks.analytic_gradients(loss_fn, store, names)
    assert checks.fd_mismatches(loss_fn, store, grads, np.random.default_rng(0)) == []
    g = grads["dec.0.cross.wv"]
    g[np.unravel_index(np.argmax(np.abs(g)), g.shape)] *= 1.001
    assert checks.fd_mismatches(loss_fn, store, grads, np.random.default_rng(0))


def test_exhaustive_and_perplexity_checks_catch_wrong_outputs():
    store = M.init_seq2seq(SMALL, 5)
    src = [6, 3, 7, 1]
    for max_len in (1, 2):
        beam = E.beam_search(SMALL, store, src, E.GenConfig(beam_size=SMALL.vocab_size,
                                                           max_len=max_len))
        best = checks.exhaustive_best(SMALL, store, src, max_len)
        assert checks.exhaustive_matches(beam, best, "tiny") == []
        assert checks.exhaustive_matches(beam + [4], best, "tiny")
    pairs = [(src, [6, 7]), ([7, 7], [5])]
    own = checks.own_perplexity(SMALL, store, pairs)
    assert checks.perplexity_matches(E.perplexity(SMALL, store, pairs), own, "tiny") == []
    assert checks.perplexity_matches(own * (1 + 1e-7), own, "tiny")


def test_accuracy_check_catches_a_wrong_best_and_a_low_score():
    items = [([6, 7], [0, 1], [1, 2]), ([8, 9], [0, 1], [0, 3])]
    acc = checks.dev_accuracy([[1, 2], [0, 0]], items)
    assert acc == 0.5
    assert checks.accuracy_matches(0.5, acc, 0.1) == []
    assert checks.accuracy_matches(0.75, acc, 0.1)
    assert checks.accuracy_matches(0.5, acc, 0.6)


def test_own_entity_f1_agrees_with_the_program_and_catches_a_wrong_value():
    rng = np.random.default_rng(0)
    tags = np.array(journey.TAGS + ("I-Y",))
    pred = [list(tags[rng.integers(len(tags), size=6)]) for _ in range(200)]
    gold = [list(tags[rng.integers(len(tags), size=6)]) for _ in range(200)]
    for p, g in zip(pred, gold):
        assert checks.own_entity_f1([p], [g]) == pytest.approx(E.entity_f1([p], [g])[2], abs=1e-12)
    own = checks.own_entity_f1(pred, gold)
    assert checks.f1_matches(E.entity_f1(pred, gold)[2], own) == []
    assert checks.f1_matches(own + 1e-6, own)


def test_setup_check_catches_a_different_model(tmp_path):
    w = journey.WORKLOADS["seq12"]
    small = replace(TINY, beam_steps=12)
    a = journey.setup(w, small, 0, str(tmp_path))
    b = journey.setup(w, small, 0, str(tmp_path))
    assert journey.setups_agree(a, b) == []
    b.enc_store["enc.3.attn.bo"].data[0] = 1.0
    assert journey.setups_agree(a, b)


def test_gauge_scales_a_sample_by_the_readings_beside_it(monkeypatch):
    readings = iter([0.002, 0.004, 0.006])
    monkeypatch.setattr(gauge, "read", lambda: next(readings))
    g = gauge.Gauge()
    g.start()
    ref = gauge.REFERENCE_MS / 1000
    assert g.scale() == pytest.approx(ref / 0.003)  # between readings 2 and 4 ms
    assert g.scale() == pytest.approx(ref / 0.005)  # between readings 4 and 6 ms
    assert g.scale_since(1) == pytest.approx(ref / 0.005)
    assert len(g.readings) == 3 and g.spent > 0
