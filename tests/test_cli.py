"""End-to-end command-line contracts: exit codes, outputs, determinism."""

import json
import os

import numpy as np
import pytest

from deskseq import checkpoint as C
from deskseq import cli
from deskseq import data as D
from deskseq import evalft as E
from deskseq import model as M


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

    def test_cost_requires_config_or_table_flag(self, capsys):
        assert cli.main(["cost"]) == cli.EXIT_CONFIG
        assert "--table1" in capsys.readouterr().err


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
                            {"seed": 0, "corpus": corpus,
                             "out": str(tmp_path / "packed"), "target_len": 8})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_OK
        man = json.loads((tmp_path / "packed" / "manifest.json").read_text())
        total_words = sum(len(r["text"].split()) for r in CORPUS)
        assert man["total_input_tokens"] == total_words
        seqs = cli.load_packed(str(tmp_path / "packed"))
        assert sum(1 for s in seqs for t in s if t != D.DOC) == total_words
        assert man["token_counts"] == {"en": 10, "fr": 6}
        assert 0.0 <= man["padding_fraction"] < 1.0
        assert set(man["upsample_weights"]) == {"en", "fr"}
        vocab = D.Vocab.load(tmp_path / "packed" / "vocab.json")
        assert man["vocab_hash"] == vocab.content_hash()

    def test_pack_is_deterministic(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        for d in ("p1", "p2"):
            cfgp = write_config(tmp_path / f"{d}.json",
                                {"seed": 0, "corpus": corpus,
                                 "out": str(tmp_path / d), "target_len": 8})
            assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_OK
        assert tree_bytes(tmp_path / "p1") == tree_bytes(tmp_path / "p2")

    def test_missing_corpus_path(self, tmp_path, capsys):
        cfgp = write_config(tmp_path / "c.json",
                            {"seed": 0, "corpus": str(tmp_path / "nope.jsonl"),
                             "out": str(tmp_path / "o")})
        assert cli.main(["pack", "--config", cfgp]) == cli.EXIT_CONFIG


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
                             {"seed": 0, "corpus": corpus,
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

    def test_evaluate_without_head_is_config_error(self, tmp_path, capsys):
        base = make_classification_task(tmp_path)
        evp = write_config(tmp_path / "ev.json", {
            "seed": 0, "out": str(tmp_path / "evald"), **base})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_CONFIG
        assert "task head" in capsys.readouterr().err

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
        base = make_classification_task(tmp_path)
        assert cli.main(["finetune", "--config", finetune_config(tmp_path, base)]) == 0
        rows = [r for r in D.read_jsonl(tmp_path / "dev.jsonl") if r["label"] == "alpha"]
        D.write_jsonl(tmp_path / "eval.jsonl", rows)
        evp = write_config(tmp_path / "ev.json", {
            "seed": 0, "out": str(tmp_path / "evald"), **base,
            "checkpoint": str(tmp_path / "tuned" / "tuned_seed0"),
            "task": {"kind": "classification", "eval": str(tmp_path / "eval.jsonl")}})
        assert cli.main(["evaluate", "--config", evp]) == cli.EXIT_CONFIG
        assert "task head has 2 labels, the eval split 1" in capsys.readouterr().err

    def test_dev_label_ids_come_from_the_train_split(self, tmp_path, capsys):
        base = make_classification_task(tmp_path)
        D.write_jsonl(tmp_path / "train.jsonl",
                      [{"text": f"w{i}", "label": lab} for i, lab in enumerate("abc")])
        D.write_jsonl(tmp_path / "dev.jsonl",
                      [{"text": f"w{i}", "label": lab} for i, lab in enumerate("bc")])
        _, _, labels = cli._read_task(base, "train")
        _, dev_set, _ = cli._read_task(base, "dev", labels)
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
