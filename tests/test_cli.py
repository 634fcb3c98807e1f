"""End-to-end command-line contracts: exit codes, outputs, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskseq import checkpoint as C
from deskseq import cli
from deskseq import data as D
from deskseq import evalft as E
from deskseq import fields
from deskseq import model as M
from deskseq import presets as P
from deskseq import synth as S
from deskseq import train as T
from deskseq.optim import OptimState

from conftest import slot


def write_config(path, body):
    body = {"version": cli.CONFIG_VERSION, **body}
    path.write_text(json.dumps(body) + "\n")
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


INLINE_PLAN = {
    "name": "tiny",
    "model": {"encoder_layers": 1, "decoder_layers": 0, "d_model": 16,
              "d_ffn": 32, "heads": 2, "vocab_size": 64, "max_positions": 40},
    "stages": [{"name": "mlm", "objective": "mlm", "steps": 3,
                "lr": {"peak": 1e-3, "total_steps": 3, "warmup_steps": 1},
                "noise": {"mode": "mlm_mask"}, "batch_size": 4}],
}
# the same with a decoder, de-noising: the model a warm start needs
INLINE_DENOISE_PLAN = {
    **INLINE_PLAN, "model": {**INLINE_PLAN["model"], "decoder_layers": 1},
    "stages": [{**INLINE_PLAN["stages"][0], "objective": "denoise",
                "noise": {"mode": "span_mask"}}],
}


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["pretrain", "--config", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        assert cli.main(["pretrain", "--config", str(p)]) == cli.EXIT_CONFIG
        assert "valid JSON" in capsys.readouterr().err

    def test_wrong_version(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"version": "0", "seed": 1}))
        assert cli.main(["pretrain", "--config", str(p)]) == cli.EXIT_CONFIG
        assert "version" in capsys.readouterr().err

    def test_missing_seed(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"version": cli.CONFIG_VERSION}))
        assert cli.main(["pretrain", "--config", str(p)]) == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, fragment", [
        ([], "one of the arguments --config --table1 is required"),
        (["--table1", "--config", "c.json"], "not allowed with argument"),
    ])
    def test_cost_requires_config_or_table_flag(self, capsys, argv, fragment):
        """`cost` takes exactly one of the two: a usage error, exit 2."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["cost", *argv])
        assert exc.value.code == 2  # argparse's usage error
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["pack", "--config", "c.json"],
                                      ["evaluate", "--config", "c.json"], ["cost", "--table1"]])
    def test_seed_option_only_on_the_verbs_that_draw(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", "1"])
        assert exc.value.code == 2  # argparse's usage error
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["pack", "evaluate", "cost"])
    def test_verbs_that_draw_nothing_need_no_seed(self, tmp_path, capsys, verb):
        body = {"pack": lambda: {"corpus": write_corpus(tmp_path / "corpus.jsonl"),
                                 "target_len": 8},
                "evaluate": lambda: {**make_generation_task(tmp_path), "max_len": 4},
                "cost": lambda: {"plans": [INLINE_PLAN]}}[verb]()
        cfgp = write_config(tmp_path / "c.json", {"out": str(tmp_path / "o"), **body})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_OK
        assert (tmp_path / "o").is_dir()

    @pytest.mark.parametrize("verb, typo", [("pack", "target_lne"), ("cost", "plnas"),
                                            ("pretrain", "corpsu"), ("finetune", "seedz"),
                                            ("evaluate", "beam_sise"), ("evaluate", "beam_size")])
    def test_every_verb_refuses_a_key_it_does_not_read(self, tmp_path, capsys, verb, typo):
        """A misspelt key is exit 2 naming it, before `out/`, in every verb;
        so is `beam_size` beside a head task, which no beam search reads.
        `evaluate` tolerates the `seed` and `finetune` of a finetune config,
        which perfbench's journey passes it, and nothing else."""
        body = {"pack": lambda: {"corpus": write_corpus(tmp_path / "corpus.jsonl")},
                "cost": lambda: {"plans": [INLINE_PLAN]},
                "pretrain": lambda: {"seed": 0, "plan": INLINE_PLAN, "corpus": {
                    "kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}},
                "finetune": lambda: {"seed": 0, **make_classification_task(tmp_path)},
                "evaluate": lambda: with_labeling_head(tmp_path,
                                                       make_labeling_task(tmp_path))}[verb]()
        cfgp = write_config(tmp_path / "c.json", {"out": str(tmp_path / "o"), **body, typo: 1})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: config fields ['{typo}'] are not read by {verb}" in err
        assert not (tmp_path / "o").exists()
        if verb == "evaluate":
            cfgp = write_config(tmp_path / "c.json", {
                "out": str(tmp_path / "o"), **body, "seed": 0,
                "finetune": {"head_hidden": [16]}})
            assert cli.main([verb, "--config", cfgp]) == cli.EXIT_OK

    @pytest.mark.parametrize("stages", [5, []])
    @pytest.mark.parametrize("verb", ["pretrain", "cost"])
    def test_stages_must_list_at_least_one_stage(self, tmp_path, capsys, verb, stages):
        """A plan with no stage would train nothing and cost 0 TU."""
        plan = {**INLINE_PLAN, "stages": stages}
        body = ({"seed": 0, "plan": plan,
                 "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}}
                if verb == "pretrain" else {"plans": [plan]})
        cfgp = write_config(tmp_path / "c.json", {"out": str(tmp_path / "o"), **body})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert (f"config error: config field 'stages' must list at least one stage, "
                f"got {stages!r}") in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps([{"version": cli.CONFIG_VERSION, "seed": 1}]))
        assert cli.main(["pretrain", "--config", str(p)]) == cli.EXIT_CONFIG
        assert "must be a JSON object, got list" in capsys.readouterr().err

    def test_unknown_scale_key_is_config_error(self, tmp_path, capsys):
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": "roberta-12e",
            "scale": {"d_model": 16, "bogus": 1},
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config field 'scale'" in err and "'bogus'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("part", ["model", "stage", "lr", "noise", "init"])
    def test_unknown_inline_plan_key_is_config_error(self, tmp_path, capsys, part):
        stage = INLINE_PLAN["stages"][0]
        plan = {**INLINE_PLAN, "init": {}}
        if part in ("model", "init"):
            plan[part] = {**plan[part], "bogus": 1}
        elif part == "stage":
            plan["stages"] = [{**stage, "bogus": 1}]
        else:
            plan["stages"] = [{**stage, part: {**stage[part], "bogus": 1}}]
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config field '{'stage 0' if part == 'stage' else part}'" in err
        assert "'bogus'" in err
        assert not (tmp_path / "run").exists()

    def test_inline_stage_keeps_the_train_stage_defaults(self):
        stage = cli._plan_from_dict(INLINE_PLAN).stages[0]
        assert (stage.freeze, stage.lr_offset, stage.batch_tokens) == ((), 0, 1_000_000)
        assert stage.batch_size == 4


class TestCost:
    def test_registry_table_and_savings(self, tmp_path, capsys):
        code = cli.main(["cost", "--table1", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        for fragment in ("roberta-12e", "5.0", "12.5", "saves 17%", "saves 27%",
                         "15.0 TU"):
            assert fragment in text
        assert (tmp_path / "o" / "cost.txt").exists()
        savings = json.loads((tmp_path / "o" / "savings.json").read_text())
        assert savings["baseline_tu"] == "15.0"
        recs = D.read_jsonl(tmp_path / "o" / "cost.jsonl")
        assert len(recs) == 10

    def test_cost_outputs_are_byte_identical_across_runs(self, tmp_path, capsys):
        for d in ("a", "b"):
            assert cli.main(["cost", "--table1", "--out", str(tmp_path / d)]) == 0
        capsys.readouterr()
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    @pytest.mark.parametrize("plans", ["table1", 5])
    def test_plans_must_be_a_list_of_inline_plans(self, tmp_path, capsys, plans):
        """`--table1` is the one way to ask for the registry."""
        cfgp = write_config(tmp_path / "c.json", {
            "out": str(tmp_path / "o"), "plans": plans})
        assert cli.main(["cost", "--config", cfgp]) == cli.EXIT_CONFIG
        assert (f"config field 'plans' must list at least one inline plan, got {plans!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("plans", [None, []])
    def test_config_without_plans_is_config_error(self, tmp_path, capsys, plans):
        body = {"out": str(tmp_path / "o")}
        if plans is not None:
            body["plans"] = plans
        assert cli.main(["cost", "--config", write_config(tmp_path / "c.json", body)]) \
            == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config field 'plans' must list at least one inline plan" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_unread_top_level_key_is_config_error(self, tmp_path, capsys):
        """`--table1`, not a config key, asks for the registry."""
        cfgp = write_config(tmp_path / "c.json", {
            "out": str(tmp_path / "o"), "plans": [INLINE_PLAN], "table1": True})
        assert cli.main(["cost", "--config", cfgp]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config fields ['table1'] are not read by cost" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_inline_plan_is_charged_the_earlier_plan_its_init_names(self, tmp_path, capsys):
        def plan(name, dec, objective, steps, **extra):
            return {"name": name, **extra,
                    "model": {"encoder_layers": 12, "decoder_layers": dec, "d_model": 1024,
                              "d_ffn": 4096, "heads": 16, "vocab_size": 64,
                              "max_positions": 40},
                    "stages": [{"name": "s", "objective": objective, "steps": steps,
                                "lr": {"peak": 1e-4, "total_steps": steps, "warmup_steps": 0},
                                "freeze": ["Encoder"] if dec else []}]}
        cfgp = write_config(tmp_path / "c.json", {"plans": [
            plan("donor", 0, "mlm", 500_000),
            plan("warm", 12, "denoise", 100_000, init={"kind": "warm_start", "path": "donor"}),
            plan("cold", 12, "denoise", 100_000,
                 init={"kind": "warm_start", "path": str(tmp_path / "ckpt")})]})
        assert cli.main(["cost", "--config", cfgp]) == cli.EXIT_OK
        rows = {l.split()[0]: l.split()[3:] for l in capsys.readouterr().out.splitlines()[1:]}
        assert rows == {"donor": ["-", "5.0"], "warm": ["5.0", "(donor)", "6.5"],
                        "cold": ["-", "1.5"]}


CORPUS = [
    {"text": "red fox runs", "lang": "en"},
    {"text": "red dog sleeps by the red door", "lang": "en"},
    {"text": "chien rouge dort", "lang": "fr"},
    {"text": "le chien court", "lang": "fr"},
]


def write_corpus(path):
    D.write_jsonl(path, CORPUS)
    return str(path)


class TestPack:
    def test_outputs_and_token_conservation(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        cfgp = write_config(tmp_path / "pack.json",
                            {"corpus": corpus,
                             "out": str(tmp_path / "packed"), "target_len": 8})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_OK
        man = json.loads((tmp_path / "packed" / "manifest.json").read_text())
        total_words = sum(len(r["text"].split()) for r in CORPUS)
        assert man["total_input_tokens"] == total_words
        seqs = cli.load_packed(str(tmp_path / "packed"))
        assert sum(1 for s in seqs for t in s if t != D.DOC) == total_words
        assert man["token_counts"] == {"en": 10, "fr": 6}
        assert 0.0 <= man["padding_fraction"] < 1.0
        assert sorted(man) == ["doc_boundaries", "langs", "padding_fraction",
                               "sequence_lengths", "target_len", "token_counts",
                               "total_input_tokens", "vocab_hash"]
        vocab = D.Vocab.load(tmp_path / "packed" / "vocab.json")
        assert man["vocab_hash"] == vocab.content_hash()

    def test_pack_is_deterministic(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        for d in ("p1", "p2"):
            cfgp = write_config(tmp_path / f"{d}.json",
                                {"corpus": corpus,
                                 "out": str(tmp_path / d), "target_len": 8})
            assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_OK
        assert tree_bytes(tmp_path / "p1") == tree_bytes(tmp_path / "p2")

    @pytest.mark.parametrize("count", [1, 40])
    @pytest.mark.parametrize("word", D.SPECIAL_TOKENS)
    def test_a_word_that_spells_a_special_token_packs_as_unk(self, tmp_path, capsys, word,
                                                             count):
        """Only the program inserts special ids: a corpus word `<pad>`, `[DOC]`
        and the like is text, rare or frequent, and encodes as `<unk>`."""
        corpus = tmp_path / "corpus.jsonl"
        D.write_jsonl(corpus, [{"text": f"b c {word} a [DOC] b <mask> c", "lang": "en"},
                               {"text": " ".join([word] * (count - 1) + ["a"]), "lang": "en"}])
        cfgp = write_config(tmp_path / "pack.json", {"corpus": str(corpus), "target_len": 8,
                                                     "out": str(tmp_path / "o")})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_OK
        vocab = D.Vocab.load(tmp_path / "o" / "vocab.json")
        assert vocab.id_to_token[D.NUM_SPECIALS:] == ["a", "b", "c"]
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        seqs = cli.load_packed(str(tmp_path / "o"))
        for seq, bounds in zip(seqs, man["doc_boundaries"]):
            assert [i for i, t in enumerate(seq) if t == D.DOC] == bounds
            assert all(t >= D.NUM_SPECIALS or t in (D.DOC, D.UNK) for t in seq)
        # the word `count` times, and the first document's `[DOC]` and `<mask>`
        assert sum(t == D.UNK for seq in seqs for t in seq) == count + 2

    def test_language_with_only_empty_text_is_packed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        D.write_jsonl(corpus, [CORPUS[0], {"text": "", "lang": "fr"}])
        cfgp = write_config(tmp_path / "pack.json",
                            {"corpus": str(corpus), "out": str(tmp_path / "o")})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_OK
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["token_counts"] == {"en": 3, "fr": 0}
        assert man["langs"] == ["en"]

    @pytest.mark.parametrize("field, value", [("target_len", "64"), ("vocab_budget", "x"),
                                              ("target_len", 8.0), ("vocab_budget", True)])
    def test_non_int_size_is_config_error_before_out(self, tmp_path, capsys, field, value):
        cfgp = write_config(tmp_path / "pack.json",
                            {"corpus": write_corpus(tmp_path / "corpus.jsonl"),
                             "out": str(tmp_path / "o"), field: value})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_CONFIG
        least = {"target_len": 2, "vocab_budget": 6}[field]
        assert (f"config field '{field}' must be an int >= {least}, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value, least", [("target_len", 1, 2), ("target_len", -3, 2),
                                                     ("vocab_budget", 5, 6)])
    def test_size_below_its_least_is_config_error_before_any_read(self, tmp_path, capsys,
                                                                  field, value, least):
        """A packed sequence holds at least two ids and a vocabulary the six
        specials: a smaller size names its field before the corpus is read."""
        cfgp = write_config(tmp_path / "pack.json",
                            {"corpus": str(tmp_path / "unread.jsonl"),
                             "out": str(tmp_path / "o"), field: value})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_CONFIG
        assert (f"config field '{field}' must be an int >= {least}, got {value}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("texts", [["", "  "], []])
    def test_corpus_without_tokens_is_config_error_before_out(self, tmp_path, capsys, texts):
        corpus = tmp_path / "corpus.jsonl"
        D.write_jsonl(corpus, [{"text": t, "lang": "en"} for t in texts])
        cfgp = write_config(tmp_path / "pack.json",
                            {"corpus": str(corpus), "out": str(tmp_path / "o")})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_CONFIG
        assert f"config field 'corpus': {corpus} holds no tokens" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_corpus_path(self, tmp_path, capsys):
        cfgp = write_config(tmp_path / "c.json",
                            {"corpus": str(tmp_path / "nope.jsonl"),
                             "out": str(tmp_path / "o")})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_CONFIG

    def test_non_string_corpus_text_is_config_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        D.write_jsonl(corpus, [CORPUS[0], {"text": 5, "lang": "en"}])
        cfgp = write_config(tmp_path / "pack.json",
                            {"corpus": str(corpus), "out": str(tmp_path / "o")})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"malformed corpus record at {corpus} line 2" in err
        assert "'text' and 'lang' must be strings, got 5, 'en'" in err
        assert not (tmp_path / "o").exists()

    def test_unread_top_level_key_is_config_error_before_out(self, tmp_path, capsys):
        cfgp = write_config(tmp_path / "pack.json", {
            "corpus": write_corpus(tmp_path / "corpus.jsonl"), "out": str(tmp_path / "o"),
            "target_length": 8})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_CONFIG
        assert ("config fields ['target_length'] are not read by pack"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_truncated_packed_bin_rejected(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        packed = tmp_path / "packed"
        cfgp = write_config(tmp_path / "pack.json",
                            {"corpus": corpus, "out": str(packed), "target_len": 8})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_OK
        total = sum(json.loads((packed / "manifest.json").read_text())["sequence_lengths"])
        data = (packed / "packed.bin").read_bytes()
        (packed / "packed.bin").write_bytes(data[:-8])
        with pytest.raises(cli.ConfigError, match=f"holds {total - 2} ids .* sum to {total}"):
            cli.load_packed(str(packed))
        runp = write_config(tmp_path / "c.json", {
            "seed": 1, "out": str(tmp_path / "run"), "plan": INLINE_PLAN,
            "corpus": str(packed)})
        assert cli.main(["pretrain", "--config", runp]) == cli.EXIT_CONFIG
        assert f"sum to {total}" in capsys.readouterr().err


class TestPretrain:
    def test_inline_plan_on_synthetic_corpus(self, tmp_path):
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 3, "out": str(tmp_path / "run"), "plan": INLINE_PLAN,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12,
                       "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_OK
        trace = D.read_jsonl(tmp_path / "run" / "trace_0_mlm.jsonl")
        assert [r["step"] for r in trace] == [0, 1, 2]
        assert all(float(r["loss"]) > 0 for r in trace)
        mcfg, store, manifest, opt = C.load(tmp_path / "run" / "ckpt_final")
        assert mcfg.encoder_layers == 1
        assert manifest["provenance"]["plan"] == "tiny"
        assert opt is not None

    def test_reruns_are_byte_identical(self, tmp_path):
        for d in ("r1", "r2"):
            cfgp = write_config(tmp_path / f"{d}.json", {
                "seed": 7, "out": str(tmp_path / d), "plan": INLINE_PLAN,
                "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12,
                           "vocab_size": 64}})
            assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_OK
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    def test_seed_override_changes_outputs(self, tmp_path):
        traces = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            cfgp = write_config(tmp_path / f"c{seed}.json", {
                "seed": 0, "out": str(out), "plan": INLINE_PLAN,
                "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12,
                           "vocab_size": 64}})
            assert cli.main(["pretrain", "--config", cfgp,
                             "--seed", str(seed)]) == cli.EXIT_OK
            traces.append(D.read_jsonl(out / "trace_0_mlm.jsonl"))
        assert traces[0] != traces[1]

    def test_packed_corpus_feeds_training(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        packp = write_config(tmp_path / "pack.json",
                             {"corpus": corpus,
                              "out": str(tmp_path / "packed"), "target_len": 8,
                              "vocab_budget": 64})
        assert cli.main(["pack", "--config", packp]) == cli.EXIT_OK
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 1, "out": str(tmp_path / "run"), "plan": INLINE_PLAN,
            "corpus": str(tmp_path / "packed")})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_OK
        assert (tmp_path / "run" / "ckpt_final" / "manifest.json").exists()

    def test_divergence_exits_with_runtime_code(self, tmp_path, capsys):
        cfg = M.ModelConfig(**INLINE_PLAN["model"])
        store = M.init_mlm_encoder(cfg, 0)
        store["embed.tok"].data[:] = np.nan
        C.save(tmp_path / "bad", cfg, store)
        plan = {**INLINE_PLAN, "init": {"kind": "checkpoint"}}
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan,
            "base": str(tmp_path / "bad"),
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12,
                       "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_RUNTIME
        assert "non-finite loss" in capsys.readouterr().err

    def test_warm_start_without_donor_is_config_error(self, tmp_path, capsys):
        plan = {**INLINE_PLAN, "init": {"kind": "warm_start"},
                "model": {**INLINE_PLAN["model"], "decoder_layers": 1},
                "stages": [{**INLINE_PLAN["stages"][0], "objective": "denoise",
                            "noise": {"mode": "span_mask"}}]}
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12,
                       "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert "donor" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["schedule", "mlm", "denoise"])
    def test_a_stage_that_cannot_run_is_config_error_before_out_exists(self, tmp_path,
                                                                       capsys, fault):
        """The second stage cannot run: its schedule ends before its last
        step, or its noise mode is not one its objective corrupts by.  Each
        is found before the first stage writes `out/`."""
        first = {**INLINE_PLAN["stages"][0], "name": "a",
                 "lr": {"peak": 1e-3, "total_steps": 4, "warmup_steps": 1}}
        second = {**first, "name": "b", "lr_offset": 3, "steps": 1}
        model = INLINE_PLAN["model"]
        if fault == "schedule":
            second["steps"] = 5
            message = ("config field 'stage 1': stage b: steps 3..7 outside schedule "
                       "range [0, 4]")
        elif fault == "mlm":
            second["noise"] = {"mode": "span_drop"}
            message = ("config field 'stage 1': stage b: mlm needs noise mode mlm_mask, "
                       "got span_drop")
        else:
            model = {**model, "decoder_layers": 1}
            first = {**first, "objective": "denoise", "noise": {"mode": "span_mask"}}
            second = {**second, "objective": "denoise", "noise": {"mode": "mlm_mask"}}
            message = ("config field 'stage 1': stage b: denoise needs noise mode "
                       "span_drop or span_mask, got mlm_mask")
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"),
            "plan": {**INLINE_PLAN, "model": model, "stages": [first, second]},
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("verb", ["pretrain", "cost"])
    @pytest.mark.parametrize("plan, message", [
        ({**INLINE_DENOISE_PLAN, "stages": [{**INLINE_DENOISE_PLAN["stages"][0], "name": "a"},
                                            {**INLINE_PLAN["stages"][0], "name": "b"}]},
         "stage b: MLM requires a model without a decoder"),
        ({**INLINE_PLAN, "init": {"kind": "warm_start"}}, "init warm_start requires a decoder"),
        ({**INLINE_DENOISE_PLAN, "init": {"kind": "extract"}},
         "init extract requires a model without a decoder"),
    ], ids=["mlm-after-denoise", "warm_start", "extract"])
    def test_a_plan_whose_model_a_step_cannot_use_is_config_error_before_out(
            self, tmp_path, capsys, verb, plan, message):
        """De-noising and a warm start need a decoder, MLM and an extraction a
        model without one.  `cost` and `pretrain` refuse the same plans, and
        `pretrain` before its first stage writes `out/`."""
        body = {"plans": [plan]} if verb == "cost" else {
            "seed": 0, "plan": plan,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}}
        cfgp = write_config(tmp_path / "c.json", {"out": str(tmp_path / "run"), **body})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change, message", [
        ({"batch_size": 0}, "config field 'stage 1': batch_size must be an int >= 1, got 0"),
        ({"batch_size": -2}, "config field 'stage 1': batch_size must be an int >= 1, got -2"),
        ({"lr": {"peak": 1e-3, "total_steps": 4, "warmup_steps": -5}},
         "config field 'lr': warmup_steps must be an int >= 0, got -5"),
        ({"batch_tokens": -1000000}, "config field 'stage 1': batch_tokens must be an int >= 1, "
                                     "got -1000000"),
        ({"model": {"heads": 0}}, "config field 'model': heads must be an int >= 1, got 0"),
        ({"model": {"encoder_layers": -1}},
         "config field 'model': encoder_layers must be an int >= 0"),
        ({"model": {"d_model": 0}}, "config field 'model': d_model must be an int >= 1, got 0"),
        ({"model": {"d_ffn": -8}}, "config field 'model': d_ffn must be an int >= 1, got -8"),
        ({"model": {"vocab_size": 0}},
         "config field 'model': vocab_size must be an int >= 1, got 0"),
        ({"model": {"max_positions": 0}},
         "config field 'model': max_positions must be an int >= 1, got 0"),
        ({"model": {"dropout": 1.0}}, "config field 'model': dropout must be < 1, got 1.0"),
        ({"model": {"dropout": -0.5}},
         "config field 'model': dropout must be a finite number >= 0, got -0.5"),
    ], ids=["batch_size 0", "batch_size -2", "warmup_steps -5", "batch_tokens -1000000",
            "heads 0", "encoder_layers -1", "d_model 0", "d_ffn -8", "vocab_size 0",
            "max_positions 0", "dropout 1.0", "dropout -0.5"])
    def test_a_later_stage_size_below_its_least_is_config_error_before_out(
            self, tmp_path, capsys, change, message):
        """A `model` change goes to the plan's model, any other to its second
        stage; `pretrain` and `cost` refuse the plan alike."""
        change = dict(change)
        model = {**INLINE_PLAN["model"], **change.pop("model", {})}
        first = {**INLINE_PLAN["stages"][0], "name": "a"}
        second = {**first, "name": "b", **change}
        plan = {**INLINE_PLAN, "model": model, "stages": [first, second]}
        for verb, body in (("pretrain", {"seed": 0, "plan": plan, "corpus": {
                "kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}}),
                           ("cost", {"plans": [plan]})):
            cfgp = write_config(tmp_path / f"{verb}.json", {"out": str(tmp_path / "run"), **body})
            assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("verb", ["pretrain", "cost"])
    @pytest.mark.parametrize("plan, message", [
        ({**INLINE_PLAN, "model": {**INLINE_PLAN["model"], "cross_attention": "fuzion"}},
         "config field 'model': cross_attention must be a string in ('standard', 'fusion'), "
         "got 'fuzion'"),
        ({**INLINE_PLAN, "stages": [{**INLINE_PLAN["stages"][0], "name": "a/b"}]},
         "config field 'stage 0': name must be letters, digits and ._+- only, got 'a/b'"),
        ({**INLINE_PLAN, "stages": [{**INLINE_PLAN["stages"][0], "name": ""}]},
         "config field 'stage 0': name must be letters, digits and ._+- only, got ''"),
    ], ids=["cross_attention fuzion", "stage name a/b", "stage name empty"])
    def test_a_name_outside_its_choices_is_config_error_before_out(self, tmp_path, capsys,
                                                                   verb, plan, message):
        """A misspelt cross-attention would train a standard model, and a
        stage's name names its trace file: "a/b" would fail only after stage
        0 wrote `out/`."""
        body = {"plans": [plan]} if verb == "cost" else {
            "seed": 0, "plan": plan,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}}
        cfgp = write_config(tmp_path / "c.json", {"out": str(tmp_path / "run"), **body})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_a_denoising_stage_without_noise_drops_spans(self, tmp_path):
        """A stage's noise defaults to its objective's first mode."""
        stage = {k: v for k, v in INLINE_DENOISE_PLAN["stages"][0].items() if k != "noise"}
        for name, st in (("default", stage), ("span_drop", {**stage, "noise": {
                "mode": "span_drop"}})):
            cfgp = write_config(tmp_path / f"{name}.json", {
                "seed": 0, "out": str(tmp_path / name),
                "plan": {**INLINE_DENOISE_PLAN, "stages": [st]},
                "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
            assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_OK
        assert tree_bytes(tmp_path / "default") == tree_bytes(tmp_path / "span_drop")

    def test_seeds_are_not_read_by_pretrain(self, tmp_path, capsys):
        cfgp = write_config(tmp_path / "c.json", {
            "seeds": [0, 1], "out": str(tmp_path / "run"), "plan": INLINE_PLAN,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert "config fields ['seeds'] are not read by pretrain" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("objective, limit", [("mlm", 40), ("denoise", 39)])
    def test_sequence_past_the_positions_is_config_error(self, tmp_path, capsys,
                                                         objective, limit):
        """MLM reads max_positions tokens; a de-noising decoder input gains
        BOS, so it reads one fewer.  One more is rejected before step 0."""
        plan = INLINE_PLAN
        if objective == "denoise":
            plan = {**INLINE_PLAN, "model": {**INLINE_PLAN["model"], "decoder_layers": 1},
                    "stages": [{**INLINE_PLAN["stages"][0], "objective": "denoise",
                                "noise": {"mode": "span_mask"}}]}
        for seq_len, code in ((limit + 1, cli.EXIT_CONFIG), (limit, cli.EXIT_OK)):
            out = tmp_path / f"run{seq_len}"
            cfgp = write_config(tmp_path / f"c{seq_len}.json", {
                "seed": 0, "out": str(out), "plan": plan,
                "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": seq_len,
                           "vocab_size": 64}})
            assert cli.main(["pretrain", "--config", cfgp]) == code
            assert out.exists() == (code == cli.EXIT_OK)
        err = capsys.readouterr().err
        assert f"has {limit + 1} tokens, more than {limit} (max_positions" in err

    @pytest.mark.parametrize("plan", [INLINE_PLAN, INLINE_DENOISE_PLAN], ids=["mlm", "denoise"])
    @pytest.mark.parametrize("seqs, fault", [
        ([], "the corpus holds no sequence"),
        ([[6, 7, 8], [], [9, 10]], "corpus sequence 1 is empty"),
        ([[6, 7, 8], [9, 10], [11, 0, 12]], "corpus sequence 2 holds PAD (id 0)"),
    ], ids=["no sequence", "empty sequence", "PAD"])
    def test_corpus_a_step_cannot_read_is_config_error_before_out(self, tmp_path, capsys,
                                                                 plan, seqs, fault):
        """A step samples any sequence: with none there is nothing to draw, an
        empty one cannot be corrupted, and PAD reads as padding."""
        packed = tmp_path / "packed"
        packed.mkdir()
        (packed / "manifest.json").write_text(
            json.dumps({"sequence_lengths": [len(seq) for seq in seqs]}))
        np.asarray([i for seq in seqs for i in seq], dtype="<i4").tofile(packed / "packed.bin")
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan, "corpus": str(packed)})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert f"config error: {fault}\n" == capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_preset_is_config_error_naming_plan(self, tmp_path, capsys):
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": "roberta-12x",
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config field 'plan' must be a string in ['roberta-12e', " in err
        assert err.endswith(", got 'roberta-12x'\n")
        assert not (tmp_path / "run").exists()

    def test_a_dir_in_a_checkpoints_place_is_a_runtime_error(self, tmp_path, capsys):
        """`checkpoint.save` replaces no non-empty dir without a manifest: a
        file-system fault, exit 3, that leaves the dir as it was."""
        keep = tmp_path / "run" / "ckpt_stage0" / "keep.txt"
        keep.parent.mkdir(parents=True)
        keep.write_text("x")
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": INLINE_PLAN,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_RUNTIME
        assert "runtime error: refusing to replace " in capsys.readouterr().err
        assert keep.read_text() == "x"

    def test_token_id_past_the_vocabulary_is_config_error(self, tmp_path, capsys):
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": INLINE_PLAN,
            "corpus": {"kind": "patterned", "n_seqs": 24, "seq_len": 12,
                       "vocab_size": 128}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()
        found = re.search(r"token id (\d+), outside \[0, vocab_size 64\)",
                          capsys.readouterr().err)
        assert found and int(found.group(1)) >= 64

    @pytest.mark.parametrize("spec, fragment", [
        ({"kind": "patterned", "n_seq": 3}, "'n_seq'"),
        ({"kind": "pairs", "n_doc": 3}, "'n_doc'"),
        ({"kind": "pairs", "map_seed": 3}, "'map_seed'"),
        ({"kind": "patterned", "seed": 3}, "'seed'"),
        ({"kind": "patterned", "n_seqs": 90}, "90 sequences need 270 tokens"),
        ({"kind": "pairs", "alphabet": 200}, "alphabet too large"),
    ])
    def test_bad_synthetic_corpus_spec_is_config_error(self, tmp_path, capsys, spec, fragment):
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": INLINE_PLAN, "corpus": spec})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config field 'corpus'" in err and fragment in err
        assert not (tmp_path / "run").exists()

    def test_synthetic_corpus_defaults_are_the_generators(self):
        """A spec gives only the keys it sets: `kind` alone draws with the
        generator's own defaults and the config's seed."""
        assert cli._load_sequences({"seed": 5, "corpus": {"kind": "patterned"}}) == \
            S.patterned_sequences(n_seqs=64, seq_len=32, vocab_size=256, seed=5)
        assert cli._load_sequences({"seed": 5, "corpus": {"kind": "pairs"}}) == \
            S.pair_language(128, alphabet=32, doc_len=24, seed=5, vocab_size=256)
        assert cli._load_sequences({"seed": 5, "corpus": {"kind": "pairs", "doc_len": 8}}) == \
            S.pair_language(128, doc_len=8, seed=5)

    @pytest.mark.parametrize("tag", ["Encodr", "Decoder"])  # Decoder: retired, it froze embed.tok
    def test_unknown_freeze_tag_is_config_error_before_out(self, tmp_path, capsys, tag):
        plan = {**INLINE_PLAN, "stages": [{**INLINE_PLAN["stages"][0], "freeze": [tag]}]}
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert (f"config field 'stage 0': freeze must be a list of strings in "
                f"('Encoder', 'Embedding'), got ['{tag}']") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_incompatible_donor_leaves_no_out(self, tmp_path, capsys):
        donor_cfg = M.ModelConfig(**{**INLINE_PLAN["model"], "d_model": 8, "d_ffn": 16})
        C.save(tmp_path / "donor", donor_cfg, M.init_mlm_encoder(donor_cfg, 0))
        plan = {**INLINE_PLAN, "init": {"kind": "warm_start"},
                "model": {**INLINE_PLAN["model"], "decoder_layers": 1},
                "stages": [{**INLINE_PLAN["stages"][0], "objective": "denoise",
                            "noise": {"mode": "span_mask"}}]}
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan,
            "donor": str(tmp_path / "donor"),
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert "donor shape mismatch" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, init", [("donor", "warm_start"), ("base", "checkpoint")])
    def test_unreadable_init_checkpoint_names_its_field(self, tmp_path, capsys, field, init):
        (tmp_path / "empty").mkdir()
        plan = {**(INLINE_DENOISE_PLAN if init == "warm_start" else INLINE_PLAN),
                "init": {"kind": init}}
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan,
            field: str(tmp_path / "empty"),
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert f"config field '{field}': not a checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_init_kind_is_config_error(self, tmp_path, capsys):
        plan = {**INLINE_PLAN, "init": {"kind": "warm-start"}}
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert ("config field 'init': kind must be a string in ('random', 'checkpoint', "
                "'warm_start', 'extract'), got 'warm-start'" in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("plan, extra, fragment", [
        (INLINE_PLAN, {"doner": "donor_ckpt"},
         "['doner'] are not read by pretrain of an inline plan with init kind random"),
        (INLINE_PLAN, {"scale": {"d_model": 32}},
         "['scale'] are not read by pretrain of an inline plan"),
        (INLINE_PLAN, {"donor": "donor_ckpt", "base": "base_ckpt"},
         "['base', 'donor'] are not read by pretrain of an inline plan with init kind random"),
        ({**INLINE_DENOISE_PLAN, "init": {"kind": "warm_start"}}, {"base": "base_ckpt"},
         "['base'] are not read by pretrain of an inline plan with init kind warm_start"),
        ("roberta-12e", {"doner": "donor_ckpt"},
         "['doner'] are not read by pretrain of a preset with init kind random"),
        ("roberta-12e", {"scale": {"d_model": 32, "fusion": True}},
         "config field 'scale': 'fusion' is fixed by the preset roberta-12e"),
        ("roberta-12e", {"scale": {"enc": 2}},
         "config field 'scale': 'enc' is fixed by the preset roberta-12e"),
        ("roberta-12e", {"scale": {"dec": 0}},
         "config field 'scale': 'dec' is fixed by the preset roberta-12e"),
        ("roberta-12e", {"scale": {"name": "bart-12e12d"}},
         "config field 'scale': 'name' is fixed by the preset roberta-12e"),
        ("roberta-12e", {"scale": {"name": "x", "enc": 2, "dec": 2}},
         "config field 'scale': 'name', 'enc', 'dec' are fixed by the preset roberta-12e"),
    ])
    def test_a_key_the_plan_does_not_read_is_config_error_before_out(self, tmp_path, capsys,
                                                                     plan, extra, fragment):
        """A misspelt key, `scale` beside an inline plan, a `donor` or `base`
        that the init kind does not read, and a `scale` key the preset fixes
        (`name`, `enc`, `dec`, `fusion`), not one Python's call would clash on."""
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"), "plan": plan, **extra,
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change, fragment", [
        ({"heads": 4}, "heads 4 vs the plan's 2"),
        ({"d_ffn": 16}, "d_ffn 16 vs the plan's 32"),
        ({"max_positions": 48}, "max_positions 48 vs the plan's 40"),
        ({"dropout": 0.1}, None),
    ])
    def test_checkpoint_base_must_be_the_plans_model(self, tmp_path, capsys, change, fragment):
        """A checkpoint is continued as the plan's model: every config field
        but dropout must match."""
        base_cfg = M.ModelConfig(**{**INLINE_PLAN["model"], **change})
        C.save(tmp_path / "base", base_cfg, M.init_mlm_encoder(base_cfg, 0))
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "run"),
            "plan": {**INLINE_PLAN, "init": {"kind": "checkpoint"}},
            "base": str(tmp_path / "base"),
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        code = cli.main(["pretrain", "--config", cfgp])
        assert (tmp_path / "run").exists() == (fragment is None)
        if fragment is None:
            assert code == cli.EXIT_OK
        else:
            assert code == cli.EXIT_CONFIG
            assert f"config field 'base': model differs: {fragment}" in capsys.readouterr().err


@settings(max_examples=16, deadline=None)
@given(kind=st.sampled_from(["warm_start", "extract"]),
       donor_layers=st.integers(1, 2), plan_layers=st.integers(1, 2),
       donor_heads=st.sampled_from([1, 2, 4]), plan_heads=st.sampled_from([1, 2, 4]))
def test_donor_starts_a_plan_iff_layers_and_heads_match(kind, donor_layers, plan_layers,
                                                        donor_heads, plan_heads):
    """Row shapes show neither a head count nor, for a deeper donor, the
    layers the plan would drop: either mismatch is exit 2 with no out/."""
    model = INLINE_PLAN["model"]
    warm = kind == "warm_start"
    donor_cfg = M.ModelConfig(**{**model, "encoder_layers": donor_layers, "heads": donor_heads,
                                 "decoder_layers": 0 if warm else 1})
    plan = {**INLINE_PLAN, "init": {"kind": kind},
            "model": {**model, "encoder_layers": plan_layers, "heads": plan_heads,
                      "decoder_layers": 1 if warm else 0}}
    if warm:
        plan["stages"] = [{**INLINE_PLAN["stages"][0], "objective": "denoise", "steps": 1,
                           "lr": {"peak": 1e-3, "total_steps": 1},
                           "noise": {"mode": "span_mask"}}]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        init = M.init_mlm_encoder if warm else M.init_seq2seq
        C.save(tmp / "donor", donor_cfg, init(donor_cfg, 0))
        cfgp = write_config(tmp / "c.json", {
            "seed": 0, "out": str(tmp / "run"), "plan": plan,
            "donor" if warm else "base": str(tmp / "donor"),
            "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})
        match = donor_layers == plan_layers and donor_heads == plan_heads
        assert cli.main(["pretrain", "--config", cfgp]) == (
            cli.EXIT_OK if match else cli.EXIT_CONFIG)
        assert (tmp / "run").exists() == match


# the least value of each int and float field of the configs that `pretrain`,
# `cost` and `finetune` build; `peak` and `peak_lr` must be above theirs
LEAST = {
    M.ModelConfig: {"encoder_layers": 0, "decoder_layers": 0, "d_model": 1, "d_ffn": 1,
                    "heads": 1, "vocab_size": 1, "max_positions": 1, "dropout": 0},
    T.LrSchedule: {"peak": 0, "total_steps": 0, "warmup_steps": 0, "end": 0},
    T.TrainStage: {"steps": 1, "lr_offset": 0, "batch_size": 1, "batch_tokens": 1},
    E.FinetuneConfig: {"peak_lr": 0, "warmup_steps": 0, "batch_size": 1, "epochs": 1,
                       "max_updates": 1, "weight_decay": 0, "dropout": 0},
}
NUMERIC_FIELDS = [(cls, f.name, f.type) for cls in LEAST for f in dataclasses.fields(cls)
                  if f.type in ("int", "float")]


def test_every_numeric_config_field_has_a_least():
    """Annotations are the strings `fields.check_fields` reads (a module
    without `from __future__ import annotations` would make them types), and
    a field added later needs its least here, for the property below."""
    for cls, least in LEAST.items():
        assert all(isinstance(f.type, str) for f in dataclasses.fields(cls)), cls
        assert {name for c, name, _ in NUMERIC_FIELDS if c is cls} == set(least), cls


# fields that `fields.check_fields` does not read: the nested configs (each
# checks its own), `cost.charge_donors`' record and the `str | None` fields
UNCHECKED = {"lr", "noise", "model", "stages", "init", "inherited_tu", "metric", "path"}
_LR = T.LrSchedule(peak=1e-3, total_steps=1)
_STAGE = T.TrainStage(name="s", objective=T.MLM, steps=1, lr=_LR, noise=D.NoiseConfig())
# each config dataclass and valid keyword arguments, its nested configs built
# beforehand so that only the class's own checks are recorded
CONFIGS = {D.NoiseConfig: {}, E.GenConfig: {}, E.FinetuneConfig: {}, T.PlanInit: {},
           M.ModelConfig: {"encoder_layers": 1},
           M.HeadSpec: {"kind": "labeling", "label_count": 2, "hidden": [4]},
           T.LrSchedule: {"peak": 1e-3, "total_steps": 1},
           T.TrainStage: {"name": "s", "objective": T.MLM, "steps": 1, "lr": _LR,
                          "noise": D.NoiseConfig()},
           T.TrainPlan: {"name": "p", "model": M.ModelConfig(encoder_layers=1),
                         "stages": [_STAGE]}}


def test_every_config_field_is_checked_or_listed(monkeypatch):
    """A config dataclass is one with a `__post_init__`.  Building one runs
    `fields.check` on each of its fields but those in UNCHECKED, so a field
    added later that the rule skips fails here."""
    configs = {obj for module in (D, E, M, T) for obj in vars(module).values()
               if dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__")}
    assert configs == set(CONFIGS)
    checked, check = [], fields.check
    monkeypatch.setattr(fields, "check", lambda name, *a: checked.append(name) or check(name, *a))
    for cls, kwargs in CONFIGS.items():
        checked.clear()
        missing = {f.name for f in dataclasses.fields(cls(**kwargs))} - UNCHECKED - set(checked)
        assert not missing, (cls, missing)


@pytest.mark.parametrize("cls, name, kind, how", [
    (cls, name, kind, how) for cls, name, kind in NUMERIC_FIELDS
    for how in ("below", "integral float", "true") if kind == "int" or how != "integral float"],
    ids=lambda v: v.__name__ if isinstance(v, type) else v)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_a_numeric_field_refuses_a_bad_value_before_out(cls, name, kind, how, data):
    """Each int or float field refuses a value below its least, an integral
    float for an int, and `true`: exit 2 naming the field, with no traceback
    and no `out/`.  Each value is refused before any file is read."""
    least = LEAST[cls][name]
    if how == "below":
        value = least - (data.draw(st.integers(1, 10**9)) if kind == "int" else
                         data.draw(st.floats(0, 1e9, exclude_min=True)))
    elif how == "integral float":
        value = float(data.draw(st.integers(least, least + 100)))
    else:
        value = True
    stage = INLINE_PLAN["stages"][0]
    if cls is E.FinetuneConfig:  # its section is read before the files it names
        runs = [("finetune", {"seed": 0, "checkpoint": "unread", "vocab": "unread",
                              "task": {"kind": "classification"}, "finetune": {name: value}})]
    else:
        if cls is M.ModelConfig:
            plan = {**INLINE_PLAN, "model": {**INLINE_PLAN["model"], name: value}}
        elif cls is T.LrSchedule:
            plan = {**INLINE_PLAN, "stages": [{**stage, "lr": {**stage["lr"], name: value}}]}
        else:
            plan = {**INLINE_PLAN, "stages": [{**stage, name: value}]}
        runs = [("cost", {"plans": [plan]}),
                ("pretrain", {"seed": 0, "plan": plan, "corpus": {
                    "kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})]
    with tempfile.TemporaryDirectory() as tmp:
        for verb, body in runs:
            cfgp = write_config(Path(tmp) / "c.json", {"out": str(Path(tmp) / "o"), **body})
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
            assert f": {name} must be " in err.getvalue() and "Traceback" not in err.getvalue()
            assert not (Path(tmp) / "o").exists()


# the least value of each key of a preset's `scale` and of a synthetic corpus
# by its kind; `peak_lr` must be above its least
SCALE_LEAST = {"steps_per_100k": 1, "warmup": 0, "batch_size": 1, "peak_lr": 0}
CORPUS_LEAST = {"patterned": {"n_seqs": 1, "seq_len": 1},
                "pairs": {"n_docs": 1, "alphabet": 1, "doc_len": 2}}
KEY_CASES = ([("scale", None, name, least) for name, least in SCALE_LEAST.items()]
             + [("corpus", kind, name, least) for kind, keys in CORPUS_LEAST.items()
                for name, least in keys.items()])


@pytest.mark.parametrize("section, kind, name, least, how", [
    (*case, how) for case in KEY_CASES for how in ("below", "integral float", "true")
    if case[2] != "peak_lr" or how != "integral float"], ids=lambda v: str(v))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_a_scale_or_corpus_key_refuses_a_bad_value_before_out(section, kind, name, least,
                                                              how, data):
    """Each int key of a preset's `scale` or a synthetic corpus, and `peak_lr`,
    refuses a value below its least (for `peak_lr`, not above it), an integral
    float for an int, and `true`: exit 2 naming the key, with no traceback and
    no `out/`."""
    if how == "below":
        value = least - (data.draw(st.floats(0, 1e9)) if name == "peak_lr" else
                         data.draw(st.integers(1, 10**9)))
    elif how == "integral float":
        value = float(data.draw(st.integers(least, least + 100)))
    else:
        value = True
    corpus = {"kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}
    if section == "scale":
        body = {"plan": "roberta-12e", "scale": {name: value}, "corpus": corpus}
    else:
        body = {"plan": INLINE_PLAN, "corpus": {"kind": kind, name: value}}
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = write_config(Path(tmp) / "c.json", {"seed": 0, "out": str(Path(tmp) / "o"), **body})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
        assert f"config field '{section}': {name} must be " in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert not (Path(tmp) / "o").exists()


def test_a_zero_layer_model_is_refused_by_cost_and_pretrain(tmp_path, capsys):
    plan = {**INLINE_PLAN, "model": {**INLINE_PLAN["model"], "encoder_layers": 0}}
    for verb, body in (("cost", {"plans": [plan]}),
                       ("pretrain", {"seed": 0, "plan": plan, "corpus": {
                           "kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})):
        cfgp = write_config(tmp_path / f"{verb}.json", {"out": str(tmp_path / verb), **body})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        assert ("config error: config field 'model': encoder_layers + decoder_layers "
                "must be >= 1, got 0") in capsys.readouterr().err
        assert not (tmp_path / verb).exists()


def test_a_random_init_that_names_a_plan_is_refused_by_cost_and_pretrain(tmp_path, capsys):
    """`init.path` names the plan whose TU `cost` charges: a run that starts
    from scratch inherits none, and `pretrain` reads no path from it."""
    plan = {**INLINE_PLAN, "init": {"kind": "random", "path": "donor"}}
    for verb, body in (("cost", {"plans": [{**INLINE_PLAN, "name": "donor"}, plan]}),
                       ("pretrain", {"seed": 0, "plan": plan, "corpus": {
                           "kind": "patterned", "n_seqs": 8, "seq_len": 12, "vocab_size": 64}})):
        cfgp = write_config(tmp_path / f"{verb}.json", {"out": str(tmp_path / verb), **body})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert ("config error: config field 'init': a random init starts from no plan, "
                "got path 'donor'") in captured.err
        assert captured.out == ""
        assert not (tmp_path / verb).exists()


def test_a_preset_without_its_donor_key_reads_no_directory(tmp_path, monkeypatch, capsys):
    """The preset's `init.path` names its donor plan, not a directory: a
    checkpoint that happens to lie at `./roberta-12e` is not read."""
    scale = {"steps_per_100k": 1, "d_model": 16, "d_ffn": 32, "heads": 2}
    cfg = P.desk_plan("roberta-12e", **scale).model
    C.save(tmp_path / "roberta-12e", cfg, M.init_mlm_encoder(cfg, 0))
    monkeypatch.chdir(tmp_path)
    cfgp = write_config(tmp_path / "c.json", {
        "seed": 0, "out": "run", "plan": "2stage-bart-12e12d", "scale": scale,
        "corpus": {"kind": "patterned", "n_seqs": 8, "seq_len": 12}})
    assert cli.main(["pretrain", "--config", cfgp]) == cli.EXIT_CONFIG
    assert ("config error: config field 'donor' must name an existing path, got None"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def make_classification_task(tmp_path):
    """Vocab + label-by-marker-word task files + a tiny encoder checkpoint."""
    words = [f"w{i}" for i in range(20)] + ["alpha", "beta"]
    vocab = D.build_vocab([words], budget=64)
    vocab.save(tmp_path / "vocab.json")
    rng = np.random.default_rng(0)
    rows = []
    for i in range(40):
        marker = ["alpha", "beta"][i % 2]
        fill = " ".join(f"w{j}" for j in rng.integers(0, 20, size=4))
        rows.append({"text": f"{marker} {fill}", "label": marker})
    D.write_jsonl(tmp_path / "train.jsonl", rows[:32])
    D.write_jsonl(tmp_path / "dev.jsonl", rows[32:])
    cfg = M.ModelConfig(encoder_layers=1, decoder_layers=0, d_model=16,
                        d_ffn=32, heads=2, vocab_size=64, max_positions=16)
    C.save(tmp_path / "base", cfg, M.init_mlm_encoder(cfg, 0))
    return {
        "vocab": str(tmp_path / "vocab.json"),
        "checkpoint": str(tmp_path / "base"),
        "task": {"kind": "classification", "train": str(tmp_path / "train.jsonl"),
                 "dev": str(tmp_path / "dev.jsonl"),
                 "eval": str(tmp_path / "dev.jsonl")},
    }


TAGS = {"a": "O", "b": "B-X", "c": "I-X", "d": "B-Y"}  # each word has one BIO tag


def make_labeling_task(tmp_path):
    """Vocab + BIO task files tagged by word + a tiny encoder checkpoint."""
    vocab = D.build_vocab([list(TAGS)], budget=64)
    vocab.save(tmp_path / "vocab.json")
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(40):
        tokens = [str(w) for w in rng.choice(list(TAGS), size=5)]
        rows.append({"tokens": tokens, "labels": [TAGS[t] for t in tokens]})
    D.write_jsonl(tmp_path / "train.jsonl", rows[:32])
    D.write_jsonl(tmp_path / "dev.jsonl", rows[32:])
    assert {l for r in rows[32:] for l in r["labels"]} == set(TAGS.values())
    cfg = M.ModelConfig(encoder_layers=1, decoder_layers=0, d_model=16,
                        d_ffn=32, heads=2, vocab_size=64, max_positions=16)
    C.save(tmp_path / "base", cfg, M.init_mlm_encoder(cfg, 0))
    return {
        "vocab": str(tmp_path / "vocab.json"),
        "checkpoint": str(tmp_path / "base"),
        "task": {"kind": "labeling", "train": str(tmp_path / "train.jsonl"),
                 "dev": str(tmp_path / "dev.jsonl"),
                 "eval": str(tmp_path / "dev.jsonl")},
    }


def with_labeling_head(tmp_path, base):
    """`base` with a labeling head on its checkpoint, as `finetune` leaves it."""
    cfg, store, _, _ = C.load(base["checkpoint"])
    spec = M.HeadSpec(kind="labeling", label_count=len(TAGS), hidden=[16])
    C.save(tmp_path / "headed", cfg, M.attach_head(store, spec, cfg.d_model, 0))
    return {**base, "checkpoint": str(tmp_path / "headed")}


def make_generation_task(tmp_path):
    """Vocab + (source, target) task files + a tiny seq2seq checkpoint."""
    vocab = D.build_vocab([[f"w{i}" for i in range(12)]], budget=32)
    vocab.save(tmp_path / "vocab.json")
    rows = [{"source": f"w{i} w{i + 1}", "target": f"w{i + 2}"} for i in range(4)]
    D.write_jsonl(tmp_path / "train.jsonl", rows)
    D.write_jsonl(tmp_path / "dev.jsonl", rows)
    cfg = M.ModelConfig(encoder_layers=1, decoder_layers=1, d_model=16,
                        d_ffn=32, heads=2, vocab_size=32, max_positions=16)
    C.save(tmp_path / "s2s", cfg, M.init_seq2seq(cfg, 0))
    return {
        "vocab": str(tmp_path / "vocab.json"),
        "checkpoint": str(tmp_path / "s2s"),
        "task": {"kind": "generation", "train": str(tmp_path / "train.jsonl"),
                 "dev": str(tmp_path / "dev.jsonl"),
                 "eval": str(tmp_path / "dev.jsonl")},
    }


MAKE_TASK = {"classification": make_classification_task, "labeling": make_labeling_task,
             "generation": make_generation_task}


def finetune_config(tmp_path, base, **finetune):
    return write_config(tmp_path / "ft.json", {
        "seed": 0, "out": str(tmp_path / "tuned"), **base,
        "finetune": {"epochs": 3, "batch_size": 8, "peak_lr": 3e-3, "warmup_steps": 2,
                     "dropout": 0.0, "head_hidden": [16], **finetune}})


class TestFinetuneEvaluate:
    def test_finetune_then_evaluate_classification(self, tmp_path):
        base = make_classification_task(tmp_path)
        ftp = write_config(tmp_path / "ft.json", {
            "seed": 0, "seeds": [0, 1], "out": str(tmp_path / "tuned"), **base,
            "finetune": {"epochs": 4, "max_updates": 40, "batch_size": 8,
                         "peak_lr": 3e-3, "warmup_steps": 4, "dropout": 0.0,
                         "head_hidden": [16]}})
        assert cli.main(["finetune", "--config", ftp]) == cli.EXIT_OK
        report = json.loads((tmp_path / "tuned" / "report.json").read_text())
        assert set(report["seeds"]) == {"0", "1"}
        assert float(report["mean"]) > 0.5
        evp = write_config(tmp_path / "ev.json", {
            "seed": 0, "out": str(tmp_path / "evald"), **base,
            "checkpoint": str(tmp_path / "tuned" / "tuned_seed0"),
            "finetune": {"head_hidden": [16]}})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_OK
        summary = json.loads((tmp_path / "evald" / "eval_summary.json").read_text())
        assert 0.0 <= float(summary["metric"]) <= 1.0

    def test_finetune_divergence_exits_with_runtime_code(self, tmp_path, capsys):
        base = make_classification_task(tmp_path)
        cfg, store, _, _ = C.load(base["checkpoint"])
        store["enc.0.ffn.w1"].data[0, 0] = np.nan
        C.save(tmp_path / "bad", cfg, store)
        ftp = write_config(tmp_path / "ft.json", {
            "seed": 0, "out": str(tmp_path / "tuned"), **base,
            "checkpoint": str(tmp_path / "bad"), "finetune": {"head_hidden": [16]}})
        assert cli.main(["finetune", "--config", ftp]) == cli.EXIT_RUNTIME
        assert "non-finite loss at fine-tune step 0" in capsys.readouterr().err

    def test_unread_top_level_key_is_config_error_before_out(self, tmp_path, capsys):
        """A misspelt `seeds` would otherwise run seed 0 alone."""
        base = make_classification_task(tmp_path)
        cfgp = write_config(tmp_path / "ft.json", {
            "seed": 0, "seedz": [0, 1], "out": str(tmp_path / "tuned"), **base,
            "finetune": {"epochs": 1, "max_updates": 2, "head_hidden": [16]}})
        assert cli.main(["finetune", "--config", cfgp]) == cli.EXIT_CONFIG
        assert "config fields ['seedz'] are not read by finetune" in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    def test_seed_option_replaces_the_seeds_list(self, tmp_path):
        base = make_classification_task(tmp_path)
        cfgp = write_config(tmp_path / "ft.json", {
            "seed": 0, "seeds": [0, 1], "out": str(tmp_path / "tuned"), **base,
            "finetune": {"epochs": 1, "max_updates": 2, "head_hidden": [16]}})
        assert cli.main(["finetune", "--config", cfgp, "--seed", "7"]) == cli.EXIT_OK
        assert sorted(os.listdir(tmp_path / "tuned")) == ["report.json", "report_seed7.jsonl",
                                                          "tuned_seed7"]
        report = json.loads((tmp_path / "tuned" / "report.json").read_text())
        assert list(report["seeds"]) == ["7"]

    def test_seeds_alone_meet_the_seed_requirement(self, tmp_path):
        base = make_classification_task(tmp_path)
        cfgp = write_config(tmp_path / "ft.json", {
            "seeds": [3, 5], "out": str(tmp_path / "tuned"), **base,
            "finetune": {"epochs": 1, "max_updates": 2, "head_hidden": [16]}})
        assert cli.main(["finetune", "--config", cfgp]) == cli.EXIT_OK
        assert sorted(os.listdir(tmp_path / "tuned")) == [
            "report.json", "report_seed3.jsonl", "report_seed5.jsonl",
            "tuned_seed3", "tuned_seed5"]
        report = json.loads((tmp_path / "tuned" / "report.json").read_text())
        assert list(report["seeds"]) == ["3", "5"]

    @pytest.mark.parametrize("change, message", [
        ({"batch_size": 0}, "batch_size must be an int >= 1, got 0"),
        ({"batch_size": -1}, "batch_size must be an int >= 1, got -1"),
        ({"warmup_steps": -5}, "warmup_steps must be an int >= 0, got -5"),
        ({"dropout": 1.0}, "dropout must be < 1, got 1.0"),
        ({"dropout": 1.5}, "dropout must be < 1, got 1.5"),
        ({"head_hidden": [0]}, "head_hidden must be a list of ints >= 1, got [0]"),
        ({"head_hidden": [-3]}, "head_hidden must be a list of ints >= 1, got [-3]"),
        ({"head_hidden": 8}, "head_hidden must be a list of ints >= 1, got 8"),
        ({"weight_decay": -5.0}, "weight_decay must be a finite number >= 0, got -5.0"),
        ({"peak_lr": -1.0}, "peak_lr must be > 0, got -1.0"),
    ], ids=["batch_size 0", "batch_size -1", "warmup_steps -5", "dropout 1.0", "dropout 1.5",
            "head_hidden [0]", "head_hidden [-3]", "head_hidden 8", "weight_decay -5.0",
            "peak_lr -1.0"])
    def test_a_size_below_its_least_is_config_error_before_out(self, tmp_path, capsys,
                                                               change, message):
        cfgp = finetune_config(tmp_path, make_classification_task(tmp_path), **change)
        assert cli.main(["finetune", "--config", cfgp]) == cli.EXIT_CONFIG
        assert f"config error: config field 'finetune': {message}" in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    def test_unknown_finetune_key_is_config_error(self, tmp_path, capsys):
        base = make_classification_task(tmp_path)
        assert cli.main(["finetune", "--config",
                         finetune_config(tmp_path, base, bogus=1)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config field 'finetune'" in err and "'bogus'" in err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("fault", ["empty dir", "no params.bin", "no optim.bin",
                                       "short params.bin", "long optim.bin", "format 1"])
    @pytest.mark.parametrize("verb", ["finetune", "evaluate"])
    def test_malformed_checkpoint_is_config_error(self, tmp_path, capsys, fault, verb):
        base = make_classification_task(tmp_path)
        cfg, store, _, _ = C.load(base["checkpoint"])
        opt = OptimState()
        slot(opt, "embed.tok", store["embed.tok"].shape)["t"] = 1
        ckpt = tmp_path / "ckpt"
        C.save(ckpt, cfg, store, opt_state=opt)
        if fault == "empty dir":
            for f in ckpt.iterdir():
                f.unlink()
        elif fault.startswith("no "):
            (ckpt / fault[3:]).unlink()
        elif fault == "format 1":
            manifest = json.loads((ckpt / "manifest.json").read_text())
            (ckpt / "manifest.json").write_text(json.dumps({**manifest, "format_version": 1}))
        else:
            f = ckpt / fault.split()[1]
            data = f.read_bytes()
            f.write_bytes(data[:-8] if fault.startswith("short") else data + data[:8])
        cfgp = finetune_config(tmp_path, {**base, "checkpoint": str(ckpt)})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert {"empty dir": "holds no manifest.json", "format 1": "checkpoint format: 1"}.get(
            fault, "bytes its manifest lists") in err
        assert not (tmp_path / "tuned").exists()

    def test_evaluate_without_head_is_config_error(self, tmp_path, capsys):
        base = make_classification_task(tmp_path)
        evp = write_config(tmp_path / "ev.json", {
            "seed": 0, "out": str(tmp_path / "evald"), **base})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_CONFIG
        assert "task head" in capsys.readouterr().err
        assert not (tmp_path / "evald").exists()

    @pytest.mark.parametrize("verb, split", [("finetune", "train"), ("finetune", "dev"),
                                             ("evaluate", "eval")])
    def test_missing_task_split_names_its_field(self, tmp_path, capsys, verb, split):
        base = make_classification_task(tmp_path)
        base["task"][split] = str(tmp_path / "nope.jsonl")
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        assert f"config field '{split}' must name an existing path" in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("fault", ["missing", "not JSON", "tokens not a list",
                                       "larger than vocab_size"])
    @pytest.mark.parametrize("verb", ["finetune", "evaluate"])
    def test_unreadable_vocab_is_config_error(self, tmp_path, capsys, fault, verb):
        base = make_classification_task(tmp_path)  # vocab_size 64
        if fault == "missing":
            os.remove(base["vocab"])
        elif fault == "larger than vocab_size":
            D.build_vocab([[f"w{i}" for i in range(59)]], budget=65).save(base["vocab"])
        else:
            (tmp_path / "vocab.json").write_text(
                "{nope" if fault == "not JSON" else json.dumps({"tokens": 5}))
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        detail = {"larger than vocab_size": ": 65 tokens, more than vocab_size 64 "
                                            "of the checkpoint"}.get(fault, "")
        assert f"config error: config field 'vocab'{detail}" in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("task, fault", [
        ("classification", "freeze must be a list of strings in ('Encoder', 'Embedding'), "
                           "got ['Embeding']"),
        ("generation", "metric accuracy not valid for seq2seq fine-tuning"),
    ])
    def test_finetune_config_fault_leaves_no_out(self, tmp_path, capsys, task, fault):
        """`finetune` creates out/ at its first write, after the first seed's
        fine-tune, so a fault found when that starts leaves none."""
        if task == "classification":
            cfgp = finetune_config(tmp_path, make_classification_task(tmp_path),
                                   freeze=["Embeding"])
        else:
            vocab = D.build_vocab([["w0", "w1", "w2"]], budget=32)
            vocab.save(tmp_path / "vocab.json")
            D.write_jsonl(tmp_path / "pairs.jsonl", [{"source": "w0 w1", "target": "w2"}])
            cfg = M.ModelConfig(encoder_layers=1, decoder_layers=1, d_model=16,
                                d_ffn=32, heads=2, vocab_size=32, max_positions=16)
            C.save(tmp_path / "s2s", cfg, M.init_seq2seq(cfg, 0))
            cfgp = finetune_config(tmp_path, {
                "vocab": str(tmp_path / "vocab.json"), "checkpoint": str(tmp_path / "s2s"),
                "task": {"kind": "generation", "train": str(tmp_path / "pairs.jsonl"),
                         "dev": str(tmp_path / "pairs.jsonl")}}, metric="accuracy")
        assert cli.main(["finetune", "--config", cfgp]) == cli.EXIT_CONFIG
        assert fault in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("freeze, fragment", [
        (["Embeding"], "got ['Embeding']"),
        (["Decoder"], "got ['Decoder']"),
        ("Embedding", "got 'Embedding'"),
    ])
    def test_bad_finetune_freeze_is_config_error_before_any_read(self, tmp_path, capsys,
                                                                 freeze, fragment):
        """The `finetune` section is checked when built, before the checkpoint
        (here missing) or a split is read."""
        base = {**make_classification_task(tmp_path), "checkpoint": str(tmp_path / "nope")}
        cfgp = finetune_config(tmp_path, base, freeze=freeze)
        assert cli.main(["finetune", "--config", cfgp]) == cli.EXIT_CONFIG
        assert (f"config error: config field 'finetune': freeze must be a list of strings in "
                f"('Encoder', 'Embedding'), {fragment}") in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("verb", ["finetune", "evaluate"])
    def test_vocab_is_read_once_per_run(self, tmp_path, monkeypatch, verb):
        load, paths = D.Vocab.load, []
        monkeypatch.setattr(D.Vocab, "load", lambda path: paths.append(path) or load(path))
        cfgp = finetune_config(tmp_path, make_generation_task(tmp_path),
                               metric="perplexity", epochs=1)
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_OK
        assert paths == [str(tmp_path / "vocab.json")]

    @pytest.mark.parametrize("verb, split", [("finetune", "dev"), ("evaluate", "eval")])
    def test_empty_task_split_is_config_error(self, tmp_path, capsys, verb, split):
        base = make_classification_task(tmp_path)
        (tmp_path / "dev.jsonl").write_text("")
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        assert f"task {split} file is empty" in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("verb", ["finetune", "evaluate"])
    def test_task_that_is_not_an_object_is_config_error(self, tmp_path, capsys, verb):
        """A string `task` would be indexed by its key names."""
        base = {**make_classification_task(tmp_path), "task": "kind"}
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        assert "config field 'task' must be a JSON object, got str" in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("verb", ["finetune", "evaluate"])
    def test_non_object_task_row_is_config_error(self, tmp_path, capsys, verb):
        base = make_classification_task(tmp_path)
        rows = D.read_jsonl(tmp_path / "dev.jsonl")
        D.write_jsonl(tmp_path / "dev.jsonl", rows[:1] + [[1, 2]] + rows[1:])
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        split = "dev" if verb == "finetune" else "eval"
        assert (f"task {split} row 2 ({tmp_path / 'dev.jsonl'}) must be a JSON object, "
                f"got list") in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("kind, field, value, expected", [
        ("classification", "text", 5, "a string"),
        ("classification", "label", ["alpha"], "a string"),
        ("labeling", "tokens", [1, 2, 3, 4, 5], "a list of strings"),
        ("labeling", "labels", "O O O O O", "a list of strings"),
        ("generation", "source", 5, "a string"),
        ("generation", "target", None, "a string"),
    ])
    def test_task_field_of_another_type_is_config_error(self, tmp_path, capsys, kind, field,
                                                         value, expected):
        base = MAKE_TASK[kind](tmp_path)
        path = tmp_path / "eval_bad.jsonl"
        rows = D.read_jsonl(tmp_path / "dev.jsonl")
        rows[1][field] = value
        D.write_jsonl(path, rows)
        base["task"]["eval"] = str(path)
        evp = write_config(tmp_path / "ev.json", {"seed": 0, "out": str(tmp_path / "o"), **base})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_CONFIG
        assert (f"task eval row 2 ({path}) field '{field}' must be {expected}, "
                f"got {value!r}") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["finetune", "evaluate"])
    @pytest.mark.parametrize("kind, empty", [("classification", {"text": " "}),
                                             ("labeling", {"tokens": [], "labels": []}),
                                             ("generation", {"source": ""})])
    def test_task_row_without_tokens_is_config_error(self, tmp_path, capsys, verb, kind,
                                                      empty):
        base = MAKE_TASK[kind](tmp_path)
        rows = D.read_jsonl(tmp_path / "dev.jsonl")
        rows[1].update(empty)
        D.write_jsonl(tmp_path / "dev.jsonl", rows)
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        split = "dev" if verb == "finetune" else "eval"
        assert (f"task {split} row 2 ({tmp_path / 'dev.jsonl'}) has no tokens"
                in capsys.readouterr().err)
        assert not (tmp_path / "tuned").exists()

    def test_evaluate_generation_reports_all_metrics(self, tmp_path):
        words = [f"w{i}" for i in range(12)]
        vocab = D.build_vocab([words], budget=32)
        vocab.save(tmp_path / "vocab.json")
        rows = [{"source": "w0 w1", "target": "w2"},
                {"source": "w3", "target": "w4 w5"}]
        D.write_jsonl(tmp_path / "eval.jsonl", rows)
        cfg = M.ModelConfig(encoder_layers=1, decoder_layers=1, d_model=16,
                            d_ffn=32, heads=2, vocab_size=32, max_positions=16)
        C.save(tmp_path / "s2s", cfg, M.init_seq2seq(cfg, 0))
        evp = write_config(tmp_path / "ev.json", {
            "seed": 0, "out": str(tmp_path / "o"),
            "vocab": str(tmp_path / "vocab.json"),
            "checkpoint": str(tmp_path / "s2s"), "max_len": 4,
            "task": {"kind": "generation", "eval": str(tmp_path / "eval.jsonl")}})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_OK
        summary = json.loads((tmp_path / "o" / "eval_summary.json").read_text())
        assert set(summary) == {"sciem", "rouge1", "rouge2", "rougeL"}
        recs = D.read_jsonl(tmp_path / "o" / "eval_records.jsonl")
        assert len(recs) == 2
        assert all("pred" in r and "gold" in r for r in recs)

    def test_evaluate_generation_max_len_past_positions_is_config_error(self, tmp_path, capsys):
        vocab = D.build_vocab([["w0", "w1"]], budget=32)
        vocab.save(tmp_path / "vocab.json")
        D.write_jsonl(tmp_path / "eval.jsonl", [{"source": "w0", "target": "w1"}])
        cfg = M.ModelConfig(encoder_layers=1, decoder_layers=1, d_model=16,
                            d_ffn=32, heads=2, vocab_size=32, max_positions=16)
        C.save(tmp_path / "s2s", cfg, M.init_seq2seq(cfg, 0))
        evp = write_config(tmp_path / "ev.json", {
            "seed": 0, "out": str(tmp_path / "o"),
            "vocab": str(tmp_path / "vocab.json"),
            "checkpoint": str(tmp_path / "s2s"), "max_len": 17,
            "task": {"kind": "generation", "eval": str(tmp_path / "eval.jsonl")}})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_CONFIG
        assert "max_len 17 exceeds max_positions 16" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_evaluate_max_len_past_positions_names_the_field_before_the_eval_read(
            self, tmp_path, capsys):
        base = make_generation_task(tmp_path)
        base["task"]["eval"] = str(tmp_path / "unread.jsonl")
        evp = write_config(tmp_path / "ev.json", {"out": str(tmp_path / "o"), **base,
                                                  "max_len": 17})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_CONFIG
        assert ("config field 'max_len': max_len 17 exceeds max_positions 16"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb, fields, field", [
        ("finetune", {"seeds": 5}, "seeds"),
        ("finetune", {"seeds": ["a"]}, "seeds"),
        ("finetune", {"seeds": []}, "seeds"),
        ("finetune", {"seeds": [0, 0]}, "seeds"),
        ("finetune", {"seeds": [True]}, "seeds"),
        ("finetune", {"seed": "a"}, "seed"),
        ("pretrain", {"seed": 1.5}, "seed"),
        ("finetune", {"seed": 5, "seeds": [1, 2]}, "seed"),  # it would name no run
    ])
    def test_bad_seed_is_config_error_before_out(self, tmp_path, capsys, verb, fields, field):
        body = ({"plan": INLINE_PLAN, "corpus": {"kind": "patterned", "n_seqs": 8,
                                                 "seq_len": 12, "vocab_size": 64}}
                if verb == "pretrain" else make_classification_task(tmp_path))
        cfgp = write_config(tmp_path / "c.json", {
            "seed": 0, "out": str(tmp_path / "o"), **body,
            "finetune": {"epochs": 1, "head_hidden": [16]}, **fields})
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: config field '{field}' must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [("beam_size", "a"), ("max_len", "4"),
                                              ("beam_size", 0), ("max_len", True)])
    def test_evaluate_bad_decoding_setting_is_config_error(self, tmp_path, capsys, field,
                                                          value):
        evp = write_config(tmp_path / "ev.json", {
            "seed": 0, "out": str(tmp_path / "o"), **make_generation_task(tmp_path),
            field: value})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_CONFIG
        assert f"{field} must be an int >= 1, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_finetune_then_evaluate_labeling_reports_entity_f1(self, tmp_path):
        base = make_labeling_task(tmp_path)
        assert cli.main(["finetune", "--config", finetune_config(tmp_path, base)]) == 0
        tuned = tmp_path / "tuned" / "tuned_seed0"
        evp = write_config(tmp_path / "ev.json", {
            "seed": 0, "out": str(tmp_path / "evald"), **base, "checkpoint": str(tuned)})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_OK
        # oracle: per-item argmax predictions, scored on label names
        cfg, store, _, _ = C.load(tuned)
        spec = M.HeadSpec(kind="labeling", label_count=len(TAGS), hidden=[16])
        names = sorted(TAGS.values())
        vocab = D.Vocab.load(base["vocab"])
        preds, golds = [], []
        for row in D.read_jsonl(tmp_path / "dev.jsonl"):
            ids = np.asarray([vocab.encode(row["tokens"])])
            feats = M.head_features(cfg, store, spec, ids, ids != D.PAD,
                                    word_starts=[list(range(ids.shape[1]))])
            logits = M.head_forward(store, spec, feats).data
            preds.append([names[i] for i in np.argmax(logits, axis=1)])
            golds.append(row["labels"])
        summary = json.loads((tmp_path / "evald" / "eval_summary.json").read_text())
        assert summary == {"metric": repr(E.entity_f1(preds, golds)[2])}

    def test_evaluate_on_labels_that_are_not_bio_is_config_error(self, tmp_path, capsys):
        """Entity F1 reads each label name as O, B-X or I-X."""
        base = make_labeling_task(tmp_path)
        D.write_jsonl(tmp_path / "dev.jsonl",
                      [{**r, "labels": ["LOC" if l == "B-X" else l for l in r["labels"]]}
                       for r in D.read_jsonl(tmp_path / "dev.jsonl")])
        cfg, store, _, _ = C.load(base["checkpoint"])
        spec = M.HeadSpec(kind="labeling", label_count=len(TAGS), hidden=[16])
        C.save(tmp_path / "headed", cfg, M.attach_head(store, spec, cfg.d_model, 0))
        evp = write_config(tmp_path / "ev.json", {
            "out": str(tmp_path / "evald"), **base, "checkpoint": str(tmp_path / "headed")})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_CONFIG
        assert "config error: malformed BIO label: 'LOC'" in capsys.readouterr().err
        assert not (tmp_path / "evald").exists()

    @pytest.mark.parametrize("verb, split", [("finetune", "train"), ("finetune", "dev"),
                                             ("evaluate", "eval")])
    def test_a_label_that_is_not_bio_is_refused_in_every_split(self, tmp_path, capsys, verb,
                                                               split):
        """`finetune` and `evaluate` read a labeling label alike: O, B-X or
        I-X, else exit 2 naming the split, its file and the row, before any
        update and before `out/`."""
        base = make_labeling_task(tmp_path)
        D.write_jsonl(tmp_path / "odd.jsonl", [{"tokens": ["a", "b"], "labels": ["LOC", "O"]}])
        base["task"][split] = str(tmp_path / "odd.jsonl")
        if verb == "evaluate":
            base = with_labeling_head(tmp_path, base)
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        assert (f"config error: malformed BIO label: 'LOC' in task {split} row 1 "
                f"({tmp_path / 'odd.jsonl'})") in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    @pytest.mark.parametrize("verb", ["finetune", "evaluate"])
    def test_generation_on_a_model_without_a_decoder_is_config_error(self, tmp_path, capsys,
                                                                     verb):
        base = {**make_generation_task(tmp_path), "checkpoint": str(tmp_path / "enc")}
        cfg = M.ModelConfig(encoder_layers=1, d_model=16, d_ffn=32, heads=2, vocab_size=32,
                            max_positions=16)
        C.save(tmp_path / "enc", cfg, M.init_mlm_encoder(cfg, 0))
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        assert ("config error: config field 'checkpoint': a generation task needs a decoder"
                in capsys.readouterr().err)
        assert not (tmp_path / "tuned").exists()

    def test_finetune_of_a_checkpoint_that_holds_a_head_is_config_error(self, tmp_path, capsys):
        """`finetune` attaches a new head, so a tuned checkpoint is not a base."""
        base = make_classification_task(tmp_path)
        cfg, store, _, _ = C.load(base["checkpoint"])
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[16])
        C.save(tmp_path / "headed", cfg, M.attach_head(store, spec, cfg.d_model, 0))
        cfgp = finetune_config(tmp_path, {**base, "checkpoint": str(tmp_path / "headed")})
        assert cli.main(["finetune", "--config", cfgp]) == cli.EXIT_CONFIG
        assert ("config error: config field 'checkpoint' already holds a task head"
                in capsys.readouterr().err)
        assert not (tmp_path / "tuned").exists()

    def test_evaluate_reads_the_head_shape_from_the_checkpoint(self, tmp_path):
        base = make_classification_task(tmp_path)
        assert cli.main(["finetune", "--config", finetune_config(tmp_path, base)]) == 0
        tuned = tmp_path / "tuned" / "tuned_seed0"
        evp = write_config(tmp_path / "ev.json", {  # no "finetune" key
            "seed": 0, "out": str(tmp_path / "evald"), **base, "checkpoint": str(tuned)})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_OK
        cfg, store, _, _ = C.load(tuned)
        spec = M.HeadSpec(kind="classification", label_count=2, hidden=[16])
        rows = D.read_jsonl(tmp_path / "dev.jsonl")
        vocab = D.Vocab.load(base["vocab"])
        items = [(vocab.encode(D.tokenize(r["text"])), ["alpha", "beta"].index(r["label"]))
                 for r in rows]
        preds = E.head_predictions(cfg, store, spec, items)
        summary = json.loads((tmp_path / "evald" / "eval_summary.json").read_text())
        assert summary == {"metric": repr(float(np.mean(
            [p == lab for p, (_, lab) in zip(preds, items)])))}

    def test_evaluate_rejects_a_split_with_other_labels_than_the_head(self, tmp_path, capsys):
        """A tuned head keeps its train labels: an eval label the head never saw
        is a config error naming it, and a split holding fewer labels is scored
        by the head's ids.  A checkpoint without label names reads the eval
        split's sorted labels and must match the head's count."""
        base = make_classification_task(tmp_path)
        assert cli.main(["finetune", "--config", finetune_config(tmp_path, base)]) == 0
        tuned = tmp_path / "tuned" / "tuned_seed0"
        manifest = json.loads((tuned / "manifest.json").read_text())
        assert manifest["provenance"]["labels"] == ["alpha", "beta"]
        rows = D.read_jsonl(tmp_path / "dev.jsonl")

        def evaluate(eval_rows):
            D.write_jsonl(tmp_path / "eval.jsonl", eval_rows)
            evp = write_config(tmp_path / "ev.json", {
                "seed": 0, "out": str(tmp_path / "evald"), **base, "checkpoint": str(tuned),
                "task": {"kind": "classification", "eval": str(tmp_path / "eval.jsonl")}})
            return cli.main(["evaluate", "--config", evp])

        # 'beta' renamed to a label that sorts first: once scored with shifted ids
        assert evaluate([{**r, "label": "aardvark" if r["label"] == "beta" else r["label"]}
                         for r in rows]) == cli.EXIT_CONFIG
        assert "labels not in train: ['aardvark']" in capsys.readouterr().err
        assert not (tmp_path / "evald").exists()
        # only 'beta' rows: scored against the head's id for 'beta', 1
        betas = [r for r in rows if r["label"] == "beta"]
        assert evaluate(betas) == cli.EXIT_OK
        cfg, store, _, _ = C.load(tuned)
        vocab = D.Vocab.load(base["vocab"])
        items = [(vocab.encode(D.tokenize(r["text"])), 1) for r in betas]
        preds = E.head_predictions(cfg, store, M.head_spec(store, "classification"), items)
        summary = json.loads((tmp_path / "evald" / "eval_summary.json").read_text())
        assert summary == {"metric": repr(float(np.mean([p == 1 for p in preds])))}
        shutil.rmtree(tmp_path / "evald")
        # a head checkpoint without label names
        del manifest["provenance"]["labels"]
        (tuned / "manifest.json").write_text(json.dumps(manifest))
        assert evaluate(betas) == cli.EXIT_CONFIG
        assert "task head has 2 labels, the eval split 1" in capsys.readouterr().err
        assert not (tmp_path / "evald").exists()
        # label names that are not a list of strings
        manifest["provenance"]["labels"] = "alpha beta"
        (tuned / "manifest.json").write_text(json.dumps(manifest))
        assert evaluate(rows) == cli.EXIT_CONFIG
        assert ("config field 'checkpoint': provenance labels must be a list of strings"
                in capsys.readouterr().err)
        assert not (tmp_path / "evald").exists()

    @pytest.mark.parametrize("split", ["train", "dev", "eval"])
    def test_labeling_row_with_unequal_tokens_and_labels_is_config_error(
            self, tmp_path, capsys, split):
        base = make_labeling_task(tmp_path)
        path = tmp_path / f"{split}_bad.jsonl"
        rows = D.read_jsonl(base["task"][split])
        rows[2]["labels"] = rows[2]["labels"][:-1]
        D.write_jsonl(path, rows)
        base["task"][split] = str(path)
        verb = "evaluate" if split == "eval" else "finetune"
        cfgp = finetune_config(tmp_path, base)
        assert cli.main([verb, "--config", cfgp]) == cli.EXIT_CONFIG
        assert (f"task {split} row 3 ({path}) has 5 tokens but 4 labels"
                in capsys.readouterr().err)
        assert not (tmp_path / "tuned").exists()

    def test_dev_label_ids_come_from_the_train_split(self, tmp_path, capsys):
        base = make_classification_task(tmp_path)
        D.write_jsonl(tmp_path / "train.jsonl",
                      [{"text": f"w{i}", "label": lab} for i, lab in enumerate("abc")])
        D.write_jsonl(tmp_path / "dev.jsonl",
                      [{"text": f"w{i}", "label": lab} for i, lab in enumerate("bc")])
        vocab, mcfg = D.Vocab.load(base["vocab"]), C.load(base["checkpoint"])[0]
        _, _, labels = cli._read_task(base, "train", vocab, mcfg)
        _, dev_set, _ = cli._read_task(base, "dev", vocab, mcfg, labels)
        assert labels == ["a", "b", "c"]
        assert [lab for _, lab in dev_set] == [1, 2]
        # a dev label that train never saw is a config error
        D.write_jsonl(tmp_path / "dev.jsonl", [{"text": "w0", "label": "d"}])
        assert cli.main(["finetune", "--config", finetune_config(tmp_path, base)]) \
            == cli.EXIT_CONFIG
        assert "labels not in train: ['d']" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["entity_f1", "sciem"])
    def test_head_finetune_with_another_metric_is_config_error(self, tmp_path, capsys, metric):
        base = make_labeling_task(tmp_path)
        ftp = finetune_config(tmp_path, base, metric=metric)
        assert cli.main(["finetune", "--config", ftp]) == cli.EXIT_CONFIG
        assert f"metric {metric} not valid" in capsys.readouterr().err
        assert not (tmp_path / "tuned" / "tuned_seed0").exists()

    @pytest.mark.parametrize("verb", ["finetune", "evaluate"])
    @pytest.mark.parametrize("kind", ["classification", "labeling", "generation"])
    def test_task_source_past_the_positions_is_config_error_before_any_update(
            self, tmp_path, capsys, monkeypatch, verb, kind):
        """The checkpoints hold max_positions 16: a row of 17 words is
        rejected as it is read, naming its split, row and file."""
        base = MAKE_TASK[kind](tmp_path)
        rows = D.read_jsonl(tmp_path / "dev.jsonl")
        words = [f"w{i % 4}" if kind != "labeling" else "a" for i in range(17)]
        rows[1].update({"classification": {"text": " ".join(words)},
                        "labeling": {"tokens": words, "labels": ["O"] * 17},
                        "generation": {"source": " ".join(words)}}[kind])
        D.write_jsonl(tmp_path / "dev.jsonl", rows)
        monkeypatch.setattr(E.T, "train_step", lambda *a: pytest.fail("an update ran"))
        assert cli.main([verb, "--config", finetune_config(tmp_path, base)]) == cli.EXIT_CONFIG
        split = "dev" if verb == "finetune" else "eval"
        assert (f"config error: task {split} row 2 ({tmp_path / 'dev.jsonl'}) has 17 tokens, "
                f"more than max_positions 16 of the checkpoint") in capsys.readouterr().err
        assert not (tmp_path / "tuned").exists()

    def test_generation_finetune_without_a_metric_selects_by_perplexity(self, tmp_path):
        """A protocol's first metric is its default: perplexity for seq2seq,
        written into the report under its name."""
        cfgp = finetune_config(tmp_path, make_generation_task(tmp_path))
        assert cli.main(["finetune", "--config", cfgp]) == cli.EXIT_OK
        report = D.read_jsonl(tmp_path / "tuned" / "report_seed0.jsonl")[0]
        assert report["metric"] == "perplexity"
        assert report["best"] == min(report["epochs"], key=float)
        _, tuned, manifest, _ = C.load(tmp_path / "tuned" / "tuned_seed0")
        assert manifest["provenance"]["metric"] == "perplexity"
        assert json.loads((tmp_path / "tuned" / "report.json").read_text())["metric"] == \
            "perplexity"

    @pytest.mark.parametrize("n_words, code", [(15, cli.EXIT_OK), (16, cli.EXIT_CONFIG)])
    def test_finetune_generation_target_must_fit_the_positions_with_bos(
            self, tmp_path, capsys, n_words, code):
        """A teacher-forced decoder reads BOS + target: 16 positions hold a
        target of 15 words.  `evaluate` only decodes, so it takes either."""
        base = make_generation_task(tmp_path)
        rows = D.read_jsonl(tmp_path / "dev.jsonl")
        rows[2]["target"] = " ".join(f"w{i % 12}" for i in range(n_words))
        D.write_jsonl(tmp_path / "dev.jsonl", rows)
        cfgp = finetune_config(tmp_path, base, metric="perplexity", epochs=1)
        assert cli.main(["finetune", "--config", cfgp]) == code
        if code == cli.EXIT_CONFIG:
            assert (f"config error: task dev row 3 ({tmp_path / 'dev.jsonl'}) target has "
                    f"17 tokens with BOS, more than max_positions 16 of the checkpoint"
                    in capsys.readouterr().err)
            assert not (tmp_path / "tuned").exists()
        evp = write_config(tmp_path / "ev.json", {"out": str(tmp_path / "evald"), **base,
                                                  "max_len": 4})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_OK
