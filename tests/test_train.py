"""Schedules, freeze plans, staged training, and checkpoint round trips."""

import os
import re
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskseq import checkpoint as C
from deskseq import data as D
from deskseq import evalft as E
from deskseq import model as M
from deskseq import presets as P
from deskseq import synth as S
from deskseq import train as T
from deskseq.data import NoiseConfig
from deskseq.optim import OptimState
from deskseq.params import ParameterStore
from deskseq.train import LrSchedule, PlanInit, TrainPlan, TrainStage, lr_at

from conftest import slot


def small_cfg(dec=2, **kw):
    base = dict(encoder_layers=2, decoder_layers=dec, d_model=8, d_ffn=16,
                heads=2, vocab_size=32, max_positions=16)
    base.update(kw)
    return M.ModelConfig(**base)


def toy_sequences(rng, count=12, length=10, vocab=32):
    return [list(rng.integers(6, vocab, size=length)) for _ in range(count)]


class TestLrSchedule:
    def test_linear_warmup_then_linear_decay(self):
        s = LrSchedule(peak=1.5e-4, total_steps=500_000, warmup_steps=5_000,
                       end=5e-6)
        assert lr_at(s, 0) == 0.0
        assert abs(lr_at(s, 2_500) - 7.5e-5) < 1e-12
        assert abs(lr_at(s, 5_000) - 1.5e-4) < 1e-12
        mid = 5_000 + (500_000 - 5_000) // 2
        # halfway through decay: halfway between peak and end (odd span rounds)
        expect = 1.5e-4 + (5e-6 - 1.5e-4) * ((mid - 5_000) / 495_000)
        assert abs(lr_at(s, mid) - expect) < 1e-15
        assert abs(lr_at(s, 500_000) - 5e-6) < 1e-12

    def test_exponential_warmup_starts_at_floor(self):
        s = LrSchedule(peak=1e-3, total_steps=100, warmup_steps=10,
                       warmup_kind="exponential")
        assert T.WARMUP_FLOOR == 1e-7
        assert abs(lr_at(s, 0) - 1e-7) < 1e-18
        # geometric interpolation: midpoint is the geometric mean
        assert abs(lr_at(s, 5) - np.sqrt(1e-7 * 1e-3)) < 1e-12
        assert abs(lr_at(s, 10) - 1e-3) < 1e-15

    def test_no_warmup_decays_from_peak(self):
        s = LrSchedule(peak=1e-3, total_steps=10, end=0.0)
        assert lr_at(s, 0) == 1e-3
        assert abs(lr_at(s, 5) - 5e-4) < 1e-15
        assert lr_at(s, 10) == 0.0

    def test_out_of_range_step_rejected(self):
        s = LrSchedule(peak=1e-3, total_steps=10)
        with pytest.raises(ValueError, match="outside"):
            lr_at(s, 11)
        with pytest.raises(ValueError, match="outside"):
            lr_at(s, -1)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="warmup_steps"):
            LrSchedule(peak=1e-3, total_steps=5, warmup_steps=6)
        with pytest.raises(ValueError, match="peak must be > end"):
            LrSchedule(peak=1e-5, total_steps=5, end=1e-4)
        with pytest.raises(ValueError, match="warmup_kind must be a string in "):
            LrSchedule(peak=1e-3, total_steps=5, warmup_kind="cosine")
        with pytest.raises(ValueError, match="warmup_steps must be an int >= 0, got -5"):
            LrSchedule(peak=1e-3, total_steps=5, warmup_steps=-5)

    def test_shared_schedule_is_continuous_across_offset(self):
        s = LrSchedule(peak=1e-3, total_steps=350, warmup_steps=50, end=1e-5)
        first = [lr_at(s, k) for k in range(200)]
        second = [lr_at(s, 200 + k) for k in range(150)]
        whole = [lr_at(s, k) for k in range(350)]
        assert first + second == whole


# the message `fields.check` gives a freeze set that is not a list of FREEZE_TAGS keys
FREEZE_FORM = "freeze must be a list of strings in ('Encoder', 'Embedding')"


class TestFreezePlans:
    def test_encoder_tag_freezes_embeddings_too(self):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 0)
        T.apply_freeze_plan(store, ("Encoder",))
        for name in store.names():
            # lm_head.w is tied to embed.tok by the plain init, so it freezes
            # along with the embedding; warm-started models untie it
            frozen = name.startswith(("enc.", "embed.", "dec.embed.tok", "lm_head.w"))
            assert store[name].requires_grad != frozen, name

    def test_freeze_is_reset_between_stages(self):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 0)
        T.apply_freeze_plan(store, ("Encoder",))
        assert not store["enc.0.attn.wq"].requires_grad
        T.apply_freeze_plan(store, ())
        assert all(store[n].requires_grad for n in store.names())

    def test_unknown_tag_rejected(self):
        store = M.init_seq2seq(small_cfg(), 0)
        with pytest.raises(ValueError, match=re.escape(f"{FREEZE_FORM}, got ('Attention',)")):
            T.apply_freeze_plan(store, ("Attention",))

    def test_stage_with_unknown_tag_is_rejected_when_built(self):
        with pytest.raises(ValueError, match=re.escape(f"{FREEZE_FORM}, got ('Encoder', 'Encodr')")):
            stage(T.MLM, 1, freeze=("Encoder", "Encodr"))

    @pytest.mark.parametrize("build", [
        lambda freeze: stage(T.MLM, 1, freeze=freeze),
        lambda freeze: E.FinetuneConfig(freeze=freeze),
        lambda freeze: T.apply_freeze_plan(M.init_seq2seq(small_cfg(), 0), freeze),
    ], ids=["stage", "finetune", "apply"])
    def test_a_bare_string_is_not_a_freeze_set(self, build):
        """"Encoder" would read as the tags "E", "n", "c", ..."""
        with pytest.raises(ValueError, match=re.escape(f"{FREEZE_FORM}, got 'Encoder'")):
            build("Encoder")

    def test_only_the_paper_tags_exist(self):
        """The encoder frozen under a fresh decoder, and the embeddings frozen
        while fine-tuning."""
        assert set(T.FREEZE_TAGS) == {"Encoder", "Embedding"}

    @pytest.mark.parametrize("model, tag", [("mlm", "MlmHead"), ("seq2seq", "LmHead"),
                                            ("seq2seq", "DecoderEmbedding"),
                                            ("warm", "DecoderEmbedding"),
                                            ("seq2seq", "Decoder")])
    def test_retired_tags_tied_to_the_embedding_are_unknown(self, model, tag):
        """Each matched a name tied to `embed.tok`, so it froze the embedding
        too, which its name does not say."""
        enc = M.init_mlm_encoder(small_cfg(dec=0), 0)
        store = {"mlm": enc, "seq2seq": M.init_seq2seq(small_cfg(), 0),
                 "warm": M.warm_start_seq2seq(enc, small_cfg(), 1)}[model]
        with pytest.raises(ValueError, match=re.escape(f"{FREEZE_FORM}, got ('{tag}',)")):
            T.apply_freeze_plan(store, (tag,))

    def test_tag_matching_nothing_rejected(self):
        store = ParameterStore()
        store.add("head.out.w", np.zeros((2, 3)))
        for tag in ("Encoder", "Embedding"):
            with pytest.raises(ValueError, match=f"freeze tag {tag} matches no parameters"):
                T.apply_freeze_plan(store, (tag,))


def stage(objective, steps, freeze=(), lr=1e-3, batch_size=4, name="s"):
    mode = D.MLM_MASK if objective == T.MLM else D.SPAN_MASK
    return TrainStage(name=name, objective=objective, steps=steps,
                      lr=LrSchedule(peak=lr, total_steps=steps, warmup_steps=min(5, steps)),
                      noise=NoiseConfig(mode=mode), freeze=freeze,
                      batch_size=batch_size)


class TestRunStage:
    def test_step_count_and_trace_fields(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        seqs = toy_sequences(rng)
        trace = T.run_stage(cfg, store, seqs, stage(T.MLM, 7), seed=3, step_base=10)
        assert [r["step"] for r in trace] == list(range(10, 17))
        assert all(set(r) == {"step", "stage", "lr", "loss"} for r in trace)
        assert all(np.isfinite(r["loss"]) for r in trace)

    def test_bit_identical_reruns(self, rng):
        cfg = small_cfg(dec=0)
        seqs = toy_sequences(rng)
        runs = []
        for _ in range(2):
            store = M.init_mlm_encoder(cfg, 0)
            trace = T.run_stage(cfg, store, seqs, stage(T.MLM, 5), seed=9)
            runs.append((trace, {n: store[n].data.copy() for n in store.names()}))
        assert runs[0][0] == runs[1][0]
        for n in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][n], runs[1][1][n])

    def test_different_seed_changes_trace(self, rng):
        cfg = small_cfg(dec=0)
        seqs = toy_sequences(rng)
        a = T.run_stage(cfg, M.init_mlm_encoder(cfg, 0), seqs, stage(T.MLM, 5), seed=1)
        b = T.run_stage(cfg, M.init_mlm_encoder(cfg, 0), seqs, stage(T.MLM, 5), seed=2)
        assert [r["loss"] for r in a] != [r["loss"] for r in b]

    def test_frozen_parameters_do_not_move(self, rng):
        cfg = small_cfg()
        store = M.warm_start_seq2seq(M.init_mlm_encoder(small_cfg(dec=0), 0), cfg, 1)
        before = {n: store[n].data.copy() for n in store.names()}
        T.run_stage(cfg, store, toy_sequences(rng), stage(T.DENOISE, 3, freeze=("Encoder",)),
                    seed=4)
        for n in store.names():
            if n.startswith(("enc.", "embed.")) or n == "dec.embed.tok":
                np.testing.assert_array_equal(store[n].data, before[n])
        assert not np.array_equal(store["dec.0.self.wq"].data, before["dec.0.self.wq"])

    def test_optimizer_slots_cover_only_trainables(self, rng):
        cfg = small_cfg()
        store = M.warm_start_seq2seq(M.init_mlm_encoder(small_cfg(dec=0), 0), cfg, 1)
        opt = OptimState()
        T.run_stage(cfg, store, toy_sequences(rng), stage(T.DENOISE, 2, freeze=("Encoder",)),
                    seed=4, opt_state=opt)
        trainable_owners = {o for o, t in store.unique_items() if t.requires_grad}
        assert set(opt.slots) == trainable_owners

    def test_unfrozen_parameters_get_fresh_moments(self, rng):
        cfg = small_cfg()
        store = M.warm_start_seq2seq(M.init_mlm_encoder(small_cfg(dec=0), 0), cfg, 1)
        opt = OptimState()
        seqs = toy_sequences(rng)
        T.run_stage(cfg, store, seqs, stage(T.DENOISE, 3, freeze=("Encoder",)),
                    seed=4, opt_state=opt)
        assert opt.slots["dec.0.self.wq"]["t"] == 3
        T.run_stage(cfg, store, seqs, stage(T.DENOISE, 2), seed=5, opt_state=opt)
        assert opt.slots["dec.0.self.wq"]["t"] == 5
        # the embedding tie group (owner: dec.embed.tok) joined at stage two
        assert opt.slots["dec.embed.tok"]["t"] == 2

    def test_nan_raises_with_step_number(self, rng):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        store["embed.tok"].data[:] = np.nan
        with pytest.raises(T.TrainingDiverged, match="step 0"):
            T.run_stage(cfg, store, toy_sequences(rng), stage(T.MLM, 2), seed=0)

    def test_empty_sequence_list_rejected(self):
        cfg = small_cfg(dec=0)
        with pytest.raises(ValueError, match="nonempty"):
            T.run_stage(cfg, M.init_mlm_encoder(cfg, 0), [], stage(T.MLM, 1), seed=0)


class TestRunPlan:
    def test_two_stage_plan_threads_state(self, rng):
        cfg = small_cfg()
        plan = TrainPlan(name="p", model=cfg,
                         stages=[stage(T.DENOISE, 3, freeze=("Encoder",), name="frz"),
                                 stage(T.DENOISE, 2, name="unfrz")])
        ends = []
        store, traces, opt = T.run_plan(plan, toy_sequences(rng), seed=2,
                                        donor=None,
                                        on_stage_end=lambda k, st, s, o, tr: ends.append(st.name))
        assert ends == ["frz", "unfrz"]
        assert [len(t) for t in traces] == [3, 2]
        assert traces[1][0]["step"] == 3  # continues global numbering

    @pytest.mark.parametrize("lr_offset, steps, ok", [(0, 5, True), (2, 3, True),
                                                      (-1, 2, False), (2, 4, False)])
    def test_a_stage_runs_inside_its_schedule(self, lr_offset, steps, ok):
        """Steps lr_offset .. lr_offset + steps - 1 must lie in [0, total_steps]."""
        def build():
            return TrainStage(name="s", objective=T.MLM, steps=steps,
                              lr=LrSchedule(peak=1e-3, total_steps=4),
                              noise=NoiseConfig(), lr_offset=lr_offset)
        if ok:
            build()
            return
        last = lr_offset + steps - 1
        message = (f"stage s: steps {lr_offset}..{last} outside schedule range \\[0, 4\\]"
                   if lr_offset >= 0 else "lr_offset must be an int >= 0, got -1")
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("steps_per_100k", [1, 2, 3, 7, 40, 400])
    def test_every_desk_preset_runs_inside_its_schedule(self, steps_per_100k):
        for plan in P.registry_plans():
            P.desk_plan(plan.name, steps_per_100k=steps_per_100k)

    def test_denoise_without_decoder_rejected(self):
        with pytest.raises(ValueError, match="decoder"):
            TrainPlan(name="p", model=small_cfg(dec=0), stages=[stage(T.DENOISE, 1)])

    @pytest.mark.parametrize("objective", [T.MLM, T.DENOISE])
    @pytest.mark.parametrize("dec", [0, 1])
    @pytest.mark.parametrize("kind", ["random", "checkpoint", "warm_start", "extract"])
    def test_a_plan_that_builds_runs(self, rng, kind, dec, objective):
        """De-noising and a warm start need a decoder, MLM and an extraction a
        model without one.  A plan that breaks this is refused when built,
        naming its init or stage; any other runs a step from its donor."""
        cfg = small_cfg(dec=dec)
        faults = []
        if kind in ("warm_start", "extract") and (kind == "warm_start") != bool(dec):
            faults.append(f"init {kind}")
        if (objective == T.DENOISE) != bool(dec):
            faults.append("stage s")

        def build():
            return TrainPlan(name="p", model=cfg, stages=[stage(objective, 1)],
                             init=PlanInit(kind=kind))
        if faults:
            with pytest.raises(ValueError, match=f"^(?:{'|'.join(faults)}):? .*decoder$"):
                build()
            return
        donor = {"checkpoint": (M.init_seq2seq if dec else M.init_mlm_encoder)(cfg, 5),
                 "warm_start": M.init_mlm_encoder(small_cfg(dec=0), 5),
                 "extract": M.init_seq2seq(small_cfg(dec=1), 5)}.get(kind)
        store, traces, _ = T.run_plan(build(), toy_sequences(rng), seed=0, donor=donor)
        assert [len(t) for t in traces] == [1]
        assert any(n.startswith("dec.") for n in store.names()) == bool(dec)

    @pytest.mark.parametrize("objective, mode", [(T.MLM, D.MLM_MASK), (T.DENOISE, D.SPAN_DROP)])
    def test_a_stage_without_noise_takes_its_objectives_first_mode(self, objective, mode):
        built = TrainStage(name="s", objective=objective, steps=1,
                           lr=LrSchedule(peak=1e-3, total_steps=1))
        assert built.noise == NoiseConfig(mode=mode)

    def test_plan_without_stages_is_rejected(self):
        with pytest.raises(ValueError, match="plan p has no stages"):
            TrainPlan(name="p", model=small_cfg(), stages=[])

    def test_warm_start_without_donor_rejected(self, rng):
        plan = TrainPlan(name="p", model=small_cfg(),
                         stages=[stage(T.DENOISE, 1)],
                         init=PlanInit(kind="warm_start"))
        with pytest.raises(ValueError, match="donor"):
            T.run_plan(plan, toy_sequences(rng), seed=0)

    def test_extract_init_produces_encoder(self, rng):
        s2s = M.init_seq2seq(small_cfg(), 0)
        plan = TrainPlan(name="p", model=small_cfg(dec=0),
                         stages=[stage(T.MLM, 2)],
                         init=PlanInit(kind="extract"))
        store, traces, _ = T.run_plan(plan, toy_sequences(rng), seed=1,
                                      donor=s2s)
        assert "mlm_head.w" in store.names()
        assert not [n for n in store.names() if n.startswith("dec.")]

    def test_unknown_init_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be a string in .*, got 'warm-start'"):
            PlanInit(kind="warm-start")

    @pytest.mark.parametrize("kind", ["random", "checkpoint", "warm_start", "extract"])
    def test_init_plan_store_with_and_without_a_donor(self, kind):
        """Every kind but random starts from the one donor store, and names
        its kind when there is none; random init ignores a donor."""
        cfg = small_cfg(dec=0) if kind == "extract" else small_cfg()
        plan = TrainPlan(name="p", model=cfg,
                         stages=[stage(T.MLM if kind == "extract" else T.DENOISE, 1)],
                         init=PlanInit(kind=kind))
        donor = (M.init_mlm_encoder(small_cfg(dec=0), 0) if kind == "warm_start"
                 else M.init_seq2seq(small_cfg(), 0))
        if kind == "random":
            want = M.init_seq2seq(cfg, 3)
            for given_donor in (None, donor):
                store = T.init_plan_store(plan, 3, given_donor)
                assert store.names() == want.names()
                assert all(np.array_equal(store[n].data, want[n].data) for n in want.names())
            return
        with pytest.raises(ValueError, match=f"{kind} plan requires a donor store"):
            T.init_plan_store(plan, 3)
        store = T.init_plan_store(plan, 3, donor)
        if kind == "checkpoint":
            assert store is donor
            return
        head = "lm_head" if kind == "warm_start" else "mlm_head"
        for name, _, _ in M.encoder_layout(cfg):
            np.testing.assert_array_equal(store[name].data, donor[name].data)
        np.testing.assert_array_equal(store[f"{head}.w"].data, store["embed.tok"].data)
        assert store[f"{head}.w"] is not store["embed.tok"]
        assert not store[f"{head}.b"].data.any()
        want = (M.warm_start_seq2seq(donor, cfg, 3) if kind == "warm_start"
                else M.extract_encoder(donor, cfg))
        assert store.names() == want.names() and store.tie_groups() == want.tie_groups()
        assert all(np.array_equal(store[n].data, want[n].data) for n in want.names())


class TestCheckpoints:
    def test_round_trip_preserves_everything(self, tmp_path, rng):
        cfg = small_cfg()
        store = M.warm_start_seq2seq(M.init_mlm_encoder(small_cfg(dec=0), 0), cfg, 1)
        T.apply_freeze_plan(store, ("Encoder",))
        C.save(tmp_path / "ck", cfg, store, provenance={"note": "x"})
        cfg2, store2, manifest, opt = C.load(tmp_path / "ck")
        assert opt is None
        assert asdict(cfg2) == asdict(cfg)
        assert manifest["provenance"] == {"note": "x"}
        assert sorted(store2.names()) == sorted(store.names())
        for n in store.names():
            np.testing.assert_array_equal(store2[n].data, store[n].data)
            assert store2[n].requires_grad == store[n].requires_grad
        assert store2.tie_groups() == store.tie_groups()
        store2["dec.embed.tok"].data[0, 0] = 5.0
        assert store2["embed.tok"].data[0, 0] == 5.0  # tie rebuilt

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 3)
        C.save(tmp_path / "a", cfg, store)
        _, store2, _, _ = C.load(tmp_path / "a")
        C.save(tmp_path / "b", cfg, store2)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_resume_is_bit_exact(self, tmp_path, rng):
        """Train 6 steps straight vs 3 + checkpoint (with optimizer) + 3."""
        cfg = small_cfg(dec=0)
        seqs = toy_sequences(rng)

        def steps(store, opt, n, base):
            st = stage(T.MLM, n)
            st = TrainStage(name="s", objective=T.MLM, steps=n,
                            lr=LrSchedule(peak=1e-3, total_steps=6, warmup_steps=2),
                            noise=NoiseConfig(mode=D.MLM_MASK), lr_offset=base,
                            batch_size=4)
            # reuse per-step seeds continuing from `base` to mirror one long run
            trace = []
            for k in range(n):
                sub = TrainStage(name="s", objective=T.MLM, steps=1,
                                 lr=LrSchedule(peak=1e-3, total_steps=6, warmup_steps=2),
                                 noise=NoiseConfig(mode=D.MLM_MASK),
                                 lr_offset=base + k, batch_size=4)
                trace += T.run_stage(cfg, store, seqs, sub, seed=100 + base + k,
                                     opt_state=opt, step_base=base + k)
            return trace

        straight = M.init_mlm_encoder(cfg, 0)
        opt_a = OptimState()
        trace_a = steps(straight, opt_a, 6, 0)

        half = M.init_mlm_encoder(cfg, 0)
        opt_b = OptimState()
        trace_b = steps(half, opt_b, 3, 0)
        C.save(tmp_path / "mid", cfg, half, opt_state=opt_b)
        _, resumed, _, opt_c = C.load(tmp_path / "mid")
        trace_b += steps(resumed, opt_c, 3, 3)

        assert trace_a == trace_b
        for n in straight.names():
            np.testing.assert_array_equal(resumed[n].data, straight[n].data)

    def test_bad_format_version_rejected(self, tmp_path):
        cfg = small_cfg(dec=0)
        C.save(tmp_path / "ck", cfg, M.init_mlm_encoder(cfg, 0))
        import json
        mpath = tmp_path / "ck" / "manifest.json"
        m = json.loads(mpath.read_text())
        m["format_version"] = 99
        mpath.write_text(json.dumps(m))
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            C.load(tmp_path / "ck")

    def test_a_v2_checkpoint_is_refused(self, tmp_path):
        """Format 2 stored an attention key bias per attention; format 3 has none."""
        cfg = small_cfg(dec=1)
        C.save(tmp_path / "ck", cfg, M.init_seq2seq(cfg, 0))
        mpath = tmp_path / "ck" / "manifest.json"
        mpath.write_text(mpath.read_text().replace('"format_version": 3', '"format_version": 2'))
        with pytest.raises(ValueError, match=r"unsupported checkpoint format: 2 \(reads 3\)"):
            C.load(tmp_path / "ck")


    def test_checkpoint_is_three_files_and_float64_only(self, tmp_path):
        cfg = small_cfg(dec=0)
        store = M.init_mlm_encoder(cfg, 0)
        opt = OptimState()
        slot(opt, "embed.tok", store["embed.tok"].shape)
        C.save(tmp_path / "ck", cfg, store, opt_state=opt)
        assert sorted(f.name for f in (tmp_path / "ck").iterdir()) == [
            "manifest.json", "optim.bin", "params.bin"]
        store["embed.pos"].data = store["embed.pos"].data.astype(np.float32)
        with pytest.raises(ValueError, match="must be float64, got float32"):
            C.save(tmp_path / "f4", cfg, store)

    def test_a_failed_save_leaves_the_previous_checkpoint_whole(self, tmp_path, monkeypatch):
        cfg = small_cfg(dec=0)
        store, opt = M.init_mlm_encoder(cfg, 0), OptimState()
        for owner, t in store.unique_items()[:3]:
            slot(opt, owner, t.shape)["t"] = 2
        C.save(tmp_path / "ck", cfg, store, opt_state=opt)
        newer = store.copy()
        for _, t in newer.unique_items():
            t.data += 1.0
        real_write = C._write

        def write_two_then_fail(path, arrays):
            def two_then_fail():
                it = iter(arrays)
                yield next(it)
                yield next(it)
                raise OSError("disk full")
            return real_write(path, two_then_fail() if path.endswith("optim.bin") else arrays)

        monkeypatch.setattr(C, "_write", write_two_then_fail)
        with pytest.raises(OSError, match="disk full"):
            C.save(tmp_path / "ck", cfg, newer, opt_state=opt)
        monkeypatch.undo()
        _, loaded, _, lopt = C.load(tmp_path / "ck")
        for n in store.names():
            assert loaded[n].data.tobytes() == store[n].data.tobytes()
        assert sorted(lopt.slots) == sorted(opt.slots)
        C.save(tmp_path / "ck", cfg, newer, opt_state=opt)  # the next save replaces it
        _, loaded, _, _ = C.load(tmp_path / "ck")
        assert loaded["embed.tok"].data.tobytes() == newer["embed.tok"].data.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    def test_refuses_to_replace_a_dir_that_is_not_a_checkpoint(self, tmp_path):
        cfg = small_cfg(dec=0)
        (tmp_path / "notes").mkdir()
        (tmp_path / "notes" / "keep.txt").write_text("x")
        with pytest.raises(FileExistsError, match="no manifest.json"):
            C.save(tmp_path / "notes", cfg, M.init_mlm_encoder(cfg, 0))
        assert (tmp_path / "notes" / "keep.txt").read_text() == "x"
        assert not (tmp_path / "notes.partial").exists()

    def test_format_1_and_malformed_checkpoints_are_rejected(self, tmp_path):
        import json
        cfg = small_cfg(dec=0)
        C.save(tmp_path / "ck", cfg, M.init_mlm_encoder(cfg, 0))
        mpath = tmp_path / "ck" / "manifest.json"
        m = json.loads(mpath.read_text())
        mpath.write_text(json.dumps({**m, "format_version": 1}))
        with pytest.raises(ValueError, match="unsupported checkpoint format: 1"):
            C.load(tmp_path / "ck")
        mpath.write_text(json.dumps({**m, "optim": {"embed.tok": 1}}))
        with pytest.raises(ValueError, match="optim.bin is missing"):
            C.load(tmp_path / "ck")
        mpath.unlink()
        with pytest.raises(ValueError, match="holds no manifest.json"):
            C.load(tmp_path / "ck")


@st.composite
def checkpoint_states(draw):
    """A store with random shapes, tie groups and trainable flags, and an
    optimizer holding slots with assorted step counts for some owners."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    store, opt = ParameterStore(), OptimState()
    for i in range(draw(st.integers(1, 5))):
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        store.add(f"p{i}.w", rng.normal(size=shape), trainable=draw(st.booleans()))
        for j in range(draw(st.integers(0, 2))):  # aliases sort before or after p{i}
            store.tie(draw(st.sampled_from([f"a{i}.{j}", f"z{i}.{j}"])), f"p{i}.w")
    for owner, t in store.unique_items():
        if draw(st.booleans()):
            s = slot(opt, owner, t.shape)
            s["m"], s["v"] = rng.normal(size=t.shape), rng.random(size=t.shape)
            s["t"] = draw(st.integers(0, 10**6))
    return store, opt


@settings(max_examples=60, deadline=None)
@given(state=checkpoint_states(), with_optim=st.booleans())
def test_save_load_save_is_byte_identical_and_loads_what_was_saved(state, with_optim):
    store, opt = state
    opt = opt if with_optim else None
    cfg = small_cfg(dec=0)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        C.save(a, cfg, store, provenance={"k": 1}, opt_state=opt)
        _, loaded, manifest, lopt = C.load(a)
        C.save(b, cfg, loaded, provenance=manifest["provenance"], opt_state=lopt)
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for f in os.listdir(a):
            with open(os.path.join(a, f), "rb") as fa, open(os.path.join(b, f), "rb") as fb:
                assert fa.read() == fb.read()
    assert loaded.names() == store.names() and loaded.tie_groups() == store.tie_groups()
    assert loaded.trainable() == store.trainable()
    for n in store.names():
        assert loaded[n].data.shape == store[n].data.shape
        assert loaded[n].data.tobytes() == store[n].data.tobytes()
    assert (lopt is None) == (opt is None)
    for owner, slot in (opt.slots.items() if opt else ()):
        got = lopt.slots[owner]
        assert got["t"] == slot["t"]
        assert got["m"].tobytes() == slot["m"].tobytes()
        assert got["v"].tobytes() == slot["v"].tobytes()


class TestEvalLoss:
    def test_denoise_eval_matches_manual_weighting(self, rng, monkeypatch):
        cfg = small_cfg()
        store = M.init_seq2seq(cfg, 0)
        pairs = [(list(rng.integers(6, 32, size=5)), list(rng.integers(6, 32, size=3)))
                 for _ in range(5)]
        monkeypatch.setattr(T, "EVAL_BATCH", 5)
        whole = T.eval_denoise_loss(cfg, store, pairs)
        # token-weighted mean over single-pair batches must agree
        totals, toks = 0.0, 0
        for p in pairs:
            n = len(p[1]) + 1
            totals += T.eval_denoise_loss(cfg, store, [p]) * n
            toks += n
        assert abs(whole - totals / toks) < 1e-9

    def test_train_step_after_no_grad_evaluation_is_unchanged(self, rng):
        cfg = small_cfg()
        pairs = [(list(rng.integers(6, 32, size=5)), list(rng.integers(6, 32, size=3)))
                 for _ in range(4)]
        batch = T.pad_pairs(pairs)
        results = []
        for evaluate_first in (False, True):
            store = M.init_seq2seq(cfg, 0)
            if evaluate_first:
                E.perplexity(cfg, store, pairs)
                E.beam_search(cfg, store, pairs[0][0], E.GenConfig(beam_size=2, max_len=4))
            T.train_step(store, T.denoise_step_loss(cfg, store, *batch), OptimState(), 1e-3,
                         0.0, "step 0")
            results.append({n: (store[n].grad.tobytes(), store[n].data.tobytes())
                            for n in store.names() if store[n].grad is not None})
        assert results[0] and results[0] == results[1]


def _tape_nodes(loss):
    """Recorded nodes reachable from `loss`: the nodes `backward` runs."""
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t._backward is not None and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_desk_update_tape_node_budget():
    """One desk 12-layer update (8 x 24 tokens, dropout on) records at most
    these nodes: each projection is one `linear` node and each attention one
    `attention` node.  Splitting either back into pieces fails here."""
    batch = S.pair_language(8, doc_len=24, seed=0)
    slot_rngs = [np.random.default_rng(i) for i in range(8)]
    mlm = P.desk_plan("roberta-12e")
    donor = M.init_mlm_encoder(mlm.model, 0)
    tokens, labels, pad_mask = T.make_mlm_batch(batch, mlm.stages[0].noise,
                                                mlm.model.vocab_size, slot_rngs)
    counts = {"mlm": _tape_nodes(T.mlm_step_loss(mlm.model, donor, tokens, labels, pad_mask,
                                                 train_rng=np.random.default_rng(0)))}
    s2s = P.desk_plan("2stage-bart-12e12d-unfrz")
    store = M.warm_start_seq2seq(donor, s2s.model, 1)
    for stage, key in zip(s2s.stages, ("frozen", "unfrozen")):
        T.apply_freeze_plan(store, stage.freeze)
        loss = T.denoise_step_loss(s2s.model, store,
                                   *T.make_denoise_batch(batch, stage.noise, slot_rngs),
                                   train_rng=np.random.default_rng(0))
        counts[key] = _tape_nodes(loss)
    assert counts["mlm"] <= 176 and counts["frozen"] <= 271 and counts["unfrozen"] <= 445, counts
