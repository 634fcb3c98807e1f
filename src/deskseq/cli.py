"""Config-driven command-line front end.

Verbs: pretrain, finetune, evaluate, cost, pack.  Every command takes a JSON
config (--config), with --seed and --out overrides.  Exit codes: 0 success,
2 config error, 3 runtime abort.  (config, seed) fully determines every
output byte: no timestamps or machine state enter any file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checkpoint as C
from . import cost as costmod
from . import data as D
from . import evalft as E
from . import model as M
from . import presets as P
from . import synth
from . import train as T

CONFIG_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


def _load_config(path, overrides):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON ({exc})") from exc
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config field 'version' must be {CONFIG_VERSION!r}, "
                          f"got {cfg.get('version')!r}")
    if overrides.seed is not None:
        cfg["seed"] = overrides.seed
    if overrides.out is not None:
        cfg["out"] = overrides.out
    if "seed" not in cfg:
        raise ConfigError("config field 'seed' is required (no implicit randomness)")
    return cfg


def _require(cfg, field):
    if field not in cfg:
        raise ConfigError(f"config field '{field}' is required")
    return cfg[field]


def _write_trace(path, trace):
    D.write_jsonl(path, [{"step": r["step"], "stage": r["stage"],
                          "lr": repr(r["lr"]), "loss": repr(r["loss"])} for r in trace])


# ---------------------------------------------------------------------------
# pretrain


def _load_sequences(cfg):
    src = _require(cfg, "corpus")
    if isinstance(src, dict):  # built-in synthetic corpora
        kind = src.get("kind")
        if kind == "patterned":
            return synth.patterned_sequences(
                n_seqs=src.get("n_seqs", 64), seq_len=src.get("seq_len", 32),
                vocab_size=src.get("vocab_size", 256), seed=cfg["seed"])
        if kind == "pairs":
            return synth.pair_language(
                src.get("n_docs", 128), alphabet=src.get("alphabet", 32),
                doc_len=src.get("doc_len", 24), seed=cfg["seed"],
                vocab_size=src.get("vocab_size", 256))
        raise ConfigError(f"unknown synthetic corpus kind: {kind}")
    if not os.path.exists(src):
        raise ConfigError(f"config field 'corpus' names a missing path: {src}")
    if os.path.isdir(src):  # packed dataset directory from `pack`
        return load_packed(src)
    raise ConfigError("'corpus' must be a packed dataset dir or a synthetic spec")


def cmd_pretrain(cfg):
    out = _require(cfg, "out")
    preset = _require(cfg, "plan")
    scale = cfg.get("scale", {})
    plan = P.desk_plan(preset, **scale) if isinstance(preset, str) else _plan_from_dict(preset)
    sequences = _load_sequences(cfg)
    donor = checkpoint_store = None
    if plan.init.kind == "warm_start":
        donor_path = cfg.get("donor") or plan.init.path
        if not donor_path or not os.path.isdir(donor_path):
            raise ConfigError(f"config field 'donor' must name a checkpoint dir "
                              f"for warm-start plan {plan.name}")
        _, donor, _, _ = C.load(donor_path)
    elif plan.init.kind in ("checkpoint", "extract"):
        base_path = cfg.get("base") or plan.init.path
        if not base_path or not os.path.isdir(base_path):
            raise ConfigError(f"config field 'base' must name a checkpoint dir "
                              f"for plan {plan.name}")
        _, checkpoint_store, _, _ = C.load(base_path)
    os.makedirs(out, exist_ok=True)

    def on_stage_end(k, stage, store, opt_state, trace):
        _write_trace(os.path.join(out, f"trace_{k}_{stage.name}.jsonl"), trace)
        C.save(os.path.join(out, f"ckpt_stage{k}"), plan.model, store,
               provenance={"plan": plan.name, "stage": stage.name,
                           "stage_index": k, "seed": cfg["seed"]},
               opt_state=opt_state)

    store, traces, opt_state = T.run_plan(plan, sequences, cfg["seed"], donor=donor,
                                          checkpoint_store=checkpoint_store,
                                          on_stage_end=on_stage_end)
    C.save(os.path.join(out, "ckpt_final"), plan.model, store,
           provenance={"plan": plan.name, "stage": "final", "seed": cfg["seed"]},
           opt_state=opt_state)
    return EXIT_OK


def _plan_from_dict(d):
    model = M.ModelConfig.from_dict(_require(d, "model"))
    stages = []
    for s in _require(d, "stages"):
        lr = T.LrSchedule(**_require(s, "lr"))
        noise = D.NoiseConfig(**s.get("noise", {}))
        stages.append(T.TrainStage(
            name=_require(s, "name"), objective=_require(s, "objective"),
            steps=_require(s, "steps"), lr=lr, noise=noise,
            freeze=tuple(s.get("freeze", ())), lr_offset=s.get("lr_offset", 0),
            batch_size=s.get("batch_size", 8),
            batch_tokens=s.get("batch_tokens", 1_000_000)))
    init = T.PlanInit(**d.get("init", {}))
    return T.TrainPlan(name=_require(d, "name"), model=model, stages=stages, init=init)


# ---------------------------------------------------------------------------
# pack


def load_packed(path):
    with open(os.path.join(path, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    flat = np.fromfile(os.path.join(path, "packed.bin"), dtype="<i4")
    seqs, pos = [], 0
    for length in manifest["sequence_lengths"]:
        seqs.append(flat[pos : pos + length].tolist())
        pos += length
    return seqs


def cmd_pack(cfg):
    out = _require(cfg, "out")
    corpus_path = _require(cfg, "corpus")
    if not os.path.exists(corpus_path):
        raise ConfigError(f"config field 'corpus' names a missing path: {corpus_path}")
    target_len = cfg.get("target_len", 64)
    alpha = cfg.get("alpha", 0.3)
    docs = D.read_corpus(corpus_path)
    vocab = D.build_vocab((toks for toks, _ in docs), cfg.get("vocab_budget", 256))
    id_docs = [(vocab.encode(toks), lang) for toks, lang in docs]
    packed = D.pack_documents(id_docs, target_len)
    os.makedirs(out, exist_ok=True)
    vocab.save(os.path.join(out, "vocab.json"))
    flat = np.concatenate([np.asarray(p.ids, dtype="<i4") for p in packed])
    flat.tofile(os.path.join(out, "packed.bin"))
    lang_counts = {}
    for toks, lang in id_docs:
        lang_counts[lang] = lang_counts.get(lang, 0) + len(toks)
    manifest = {
        "vocab_hash": vocab.content_hash(),
        "target_len": target_len,
        "sequence_lengths": [len(p.ids) for p in packed],
        "doc_boundaries": [p.doc_boundaries for p in packed],
        "langs": [p.lang for p in packed],
        "token_counts": lang_counts,
        "total_input_tokens": int(sum(lang_counts.values())),
        "padding_fraction": 1.0 - sum(len(p.ids) for p in packed) / (len(packed) * target_len),
        "upsample_alpha": alpha,
        "upsample_weights": {k: repr(v) for k, v in
                             D.upsample_weights(lang_counts, alpha).items()},
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost


def cmd_cost(cfg, table1=False):
    plans = P.registry_plans() if (table1 or cfg.get("plans") == "table1") else \
        [_plan_from_dict(d) for d in cfg.get("plans", [])]
    costs = [costmod.tu_cost(p) for p in plans]
    table = costmod.cost_table(costs)
    records = costmod.cost_records(costs)
    report = {"table": table, "plans": records}
    if plans and (table1 or cfg.get("plans") == "table1"):
        baseline = [P.registry_plan("roberta-12e"), P.registry_plan("bart-12e12d")]
        candidates = [P.registry_plan("2stage-bart-12e12d"),
                      P.registry_plan("2stage-bart-12e12d-unfrz")]
        cmp = costmod.compare_recipes(candidates, baseline)
        report["savings"] = {
            "baseline_tu": costmod.render_tu(cmp["baseline_tu"]),
            "rows": [{"plan": r["plan"], "total_tu": costmod.render_tu(r["total_tu"]),
                      "savings": costmod.render_percent(r["savings"])}
                     for r in cmp["rows"]],
        }
    print(table)
    if "savings" in report:
        for row in report["savings"]["rows"]:
            print(f"{row['plan']}: {row['total_tu']} TU, saves {row['savings']} "
                  f"vs baseline {report['savings']['baseline_tu']} TU")
    out = cfg.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "cost.txt"), "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        D.write_jsonl(os.path.join(out, "cost.jsonl"), records)
        if "savings" in report:
            with open(os.path.join(out, "savings.json"), "w", encoding="utf-8") as fh:
                json.dump(report["savings"], fh, sort_keys=True, indent=1)
                fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune / evaluate


def _read_task(cfg, split, labels=None):
    """(kind, items, labels) of a split; ids index `labels`, else the split's sorted labels."""
    task = _require(cfg, "task")
    kind = _require(task, "kind")
    path = _require(task, split)
    if not os.path.exists(path):
        raise ConfigError(f"task {split} file not found: {path}")
    rows = D.read_jsonl(path)
    vocab = D.Vocab.load(_require(cfg, "vocab"))
    if kind == "generation":
        return kind, [(vocab.encode(D.tokenize(r["source"])),
                       vocab.encode(D.tokenize(r["target"]))) for r in rows], None
    if kind not in ("classification", "labeling"):
        raise ConfigError(f"unknown task kind: {kind}")
    seen = ({r["label"] for r in rows} if kind == "classification"
            else {l for r in rows for l in r["labels"]})
    labels = sorted(seen) if labels is None else labels
    if not seen <= set(labels):
        raise ConfigError(f"task {split} split has labels not in train: "
                          f"{sorted(seen - set(labels))}")
    lab_id = {l: i for i, l in enumerate(labels)}
    if kind == "classification":
        return kind, [(vocab.encode(D.tokenize(r["text"])), lab_id[r["label"]])
                      for r in rows], labels
    items = []
    for r in rows:
        ids = vocab.encode(r["tokens"])
        starts = list(range(len(ids)))  # word-level tokens: one subword each
        items.append((ids, starts, [lab_id[l] for l in r["labels"]]))
    return kind, items, labels


def cmd_finetune(cfg):
    out = _require(cfg, "out")
    ckpt = _require(cfg, "checkpoint")
    if not os.path.isdir(ckpt):
        raise ConfigError(f"config field 'checkpoint' names a missing dir: {ckpt}")
    mcfg, store, _, _ = C.load(ckpt)
    kind, train_set, labels = _read_task(cfg, "train")
    _, dev_set, _ = _read_task(cfg, "dev", labels)
    seeds = cfg.get("seeds", [cfg["seed"]])
    fcfg = E.FinetuneConfig(**cfg.get("finetune", {}))
    os.makedirs(out, exist_ok=True)
    values = []
    for seed in seeds:
        if kind == "generation":
            tuned, record = E.finetune_seq2seq(mcfg, store, train_set, dev_set, fcfg, seed)
        else:
            spec = M.HeadSpec(kind=kind, label_count=len(labels),
                              hidden=fcfg.head_hidden)
            tuned, record = E.finetune_classifier(mcfg, store, spec, train_set,
                                                  dev_set, fcfg, seed)
        values.append(record["best"])
        C.save(os.path.join(out, f"tuned_seed{seed}"), mcfg, tuned,
               provenance={"task": kind, "seed": seed, "metric": record["metric"]})
        D.write_jsonl(os.path.join(out, f"report_seed{seed}.jsonl"),
                      [{"seed": seed, "metric": record["metric"],
                        "best": repr(record["best"]),
                        "epochs": [repr(v) for v in record["epochs"]]}])
    agg = E.aggregate_seeds(values)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"task": kind, "metric": fcfg.metric,
                   "mean": repr(agg["mean"]), "std": repr(agg["std"]),
                   "seeds": {str(s): repr(v) for s, v in zip(seeds, values)}},
                  fh, sort_keys=True, indent=1)
        fh.write("\n")
    return EXIT_OK


def cmd_evaluate(cfg):
    out = _require(cfg, "out")
    ckpt = _require(cfg, "checkpoint")
    if not os.path.isdir(ckpt):
        raise ConfigError(f"config field 'checkpoint' names a missing dir: {ckpt}")
    mcfg, store, _, _ = C.load(ckpt)
    kind, eval_set, labels = _read_task(cfg, "eval")
    vocab = D.Vocab.load(_require(cfg, "vocab"))
    os.makedirs(out, exist_ok=True)
    records = []
    if kind == "generation":
        gc = E.GenConfig(beam_size=cfg.get("beam_size", 3),
                         max_len=cfg.get("max_len", mcfg.max_positions - 1))
        r1s, r2s, rls, ems = [], [], [], []
        for src, tgt in eval_set:
            hyp = E.beam_search(mcfg, store, src, gc)
            hyp_text = " ".join(vocab.decode(hyp))
            gold_text = " ".join(vocab.decode(tgt))
            em = E.sciem(hyp_text, gold_text)
            r1, r2, rl = E.rouge(hyp_text, gold_text)
            records.append({"pred": hyp_text, "gold": gold_text, "sciem": em,
                            "rouge1": repr(r1), "rouge2": repr(r2), "rougeL": repr(rl)})
            ems.append(em)
            r1s.append(r1)
            r2s.append(r2)
            rls.append(rl)
        summary = {"sciem": repr(float(np.mean(ems))),
                   "rouge1": repr(float(np.mean(r1s))),
                   "rouge2": repr(float(np.mean(r2s))),
                   "rougeL": repr(float(np.mean(rls)))}
    else:
        if "head.out.w" not in store:
            raise ConfigError("checkpoint has no fine-tuned task head; "
                              "run finetune first")
        spec = M.head_spec(store, kind)
        if spec.label_count != len(labels):
            raise ConfigError(f"task head has {spec.label_count} labels, "
                              f"the eval split {len(labels)}")
        preds = E.head_predictions(mcfg, store, spec, eval_set)
        if kind == "classification":
            value = float(np.mean([p == item[-1] for p, item in zip(preds, eval_set)]))
        else:
            value = E.entity_f1([[labels[i] for i in p] for p in preds],
                                [[labels[i] for i in item[-1]] for item in eval_set])[2]
        summary = {"metric": repr(value)}
    D.write_jsonl(os.path.join(out, "eval_records.jsonl"), records)
    with open(os.path.join(out, "eval_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(prog="deskseq",
                                     description="desk-scale pre-training workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("pretrain", "finetune", "evaluate", "pack"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    p = sub.add_parser("cost")
    p.add_argument("--config", default=None)
    p.add_argument("--table1", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "cost":
            if args.config:
                cfg = _load_config(args.config, args)
            else:
                if not args.table1:
                    raise ConfigError("cost requires --config or --table1")
                cfg = {"version": CONFIG_VERSION, "seed": 0, "out": args.out}
            return cmd_cost(cfg, table1=args.table1)
        cfg = _load_config(args.config, args)
        handler = {"pretrain": cmd_pretrain, "finetune": cmd_finetune,
                   "evaluate": cmd_evaluate, "pack": cmd_pack}[args.command]
        return handler(cfg)
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (T.TrainingDiverged, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
