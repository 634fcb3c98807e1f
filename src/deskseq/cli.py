"""Config-driven command-line front end.

Verbs: pretrain, finetune, evaluate, cost, pack.  Each takes a JSON config
(--config; `cost --table1` none) and an --out override; the two that draw,
pretrain and finetune, also an int `seed` and a --seed override.  Exit codes:
0 success, 2 config error, 3 runtime abort.  (config, seed) fully determines
every output byte: no timestamps or machine state enter any file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

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


def _load_config(path, args):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON ({exc})") from exc
    _object(cfg, "the config")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config field 'version' must be {CONFIG_VERSION!r}, "
                          f"got {cfg.get('version')!r}")
    if args.out is not None:
        cfg["out"] = args.out
    if "seed" in args:  # a verb that draws
        if args.seed is not None:
            cfg["seed"] = args.seed
        if "seed" not in cfg:
            raise ConfigError("config field 'seed' is required (no implicit randomness)")
        if not _is_int(cfg["seed"]):
            raise ConfigError(f"config field 'seed' must be an int, got {cfg['seed']!r}")
    return cfg


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is not a seed


def _object(d, what):
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def _build(fn, d, what, *args):
    """`fn(*args, **d)` for the config object `d`: a key that `fn` does not
    take, a required one left out, or a value it rejects is a config error
    that names `what`."""
    try:
        return fn(*args, **_object(d, f"config field '{what}'"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field '{what}': {exc}") from exc


def _require(cfg, field):
    if field not in cfg:
        raise ConfigError(f"config field '{field}' is required")
    return cfg[field]


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read(cfg, field, load, fallback=None):
    """`load(path)` of the path named by config field `field`, else by
    `fallback`; an absent or missing path, or one that `load` cannot read, is
    a ConfigError that names the field."""
    path = cfg.get(field) or fallback
    if not isinstance(path, str) or not os.path.exists(path):  # an int names a file descriptor
        raise ConfigError(f"config field '{field}' must name an existing path, got {path!r}")
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # a file not of its kind
        raise ConfigError(f"config field '{field}': {exc}") from exc


# ---------------------------------------------------------------------------
# pretrain


def _load_sequences(cfg):
    src = _require(cfg, "corpus")
    if isinstance(src, dict):  # a synthetic corpus: its generator's keyword arguments
        spec = dict(src)
        kind = spec.pop("kind", None)
        if kind not in ("patterned", "pairs"):
            raise ConfigError(f"unknown synthetic corpus kind: {kind}")
        gen = synth.patterned_sequences if kind == "patterned" else synth.pair_language
        # the config's seed draws the corpus: a "seed" key in the spec clashes with it
        return _build(lambda **kw: gen(seed=cfg["seed"], **kw), spec, "corpus")
    return _read(cfg, "corpus", load_packed)  # a packed dataset dir from `pack`


def cmd_pretrain(cfg):
    out = _require(cfg, "out")
    preset = _require(cfg, "plan")
    plan = (_build(P.desk_plan, cfg.get("scale", {}), "scale", preset)
            if isinstance(preset, str) else _plan_from_dict(preset))
    sequences = _load_sequences(cfg)
    _check_corpus(plan, sequences)
    donor = None
    if plan.init.kind != "random":
        field = "donor" if plan.init.kind == "warm_start" else "base"
        source, donor, _, _ = _read(cfg, field, C.load, plan.init.path)
        # row shapes show every size but the head count; a checkpoint is continued
        # as the plan's model, so all of its config but dropout must be the plan's
        keys = (["heads"] if plan.init.kind != "checkpoint"
                else [k for k in asdict(source) if k != "dropout"])
        diff = [f"{k} {getattr(source, k)!r} vs the plan's {getattr(plan.model, k)!r}"
                for k in keys if getattr(source, k) != getattr(plan.model, k)]
        if diff:
            raise ConfigError(f"config field '{field}': model differs: {'; '.join(diff)}")

    def on_stage_end(k, stage, store, opt_state, trace):
        os.makedirs(out, exist_ok=True)  # at the first write: a plan that cannot start leaves no out/
        D.write_jsonl(os.path.join(out, f"trace_{k}_{stage.name}.jsonl"),
                      [{"step": r["step"], "stage": r["stage"], "lr": repr(r["lr"]),
                        "loss": repr(r["loss"])} for r in trace])
        C.save(os.path.join(out, f"ckpt_stage{k}"), plan.model, store,
               provenance={"plan": plan.name, "stage": stage.name,
                           "stage_index": k, "seed": cfg["seed"]},
               opt_state=opt_state)

    store, traces, opt_state = T.run_plan(plan, sequences, cfg["seed"], donor=donor,
                                          on_stage_end=on_stage_end)
    C.save(os.path.join(out, "ckpt_final"), plan.model, store,
           provenance={"plan": plan.name, "stage": "final", "seed": cfg["seed"]},
           opt_state=opt_state)
    return EXIT_OK


def _check_corpus(plan, sequences):
    """Reject a corpus the plan's model cannot read, before step 0 and before
    any output exists: a token id outside the vocabulary, or a sequence longer
    than the positions (one fewer for de-noising, whose decoder input gains BOS)."""
    cfg = plan.model
    limit, why = cfg.max_positions, "max_positions"
    if any(st.objective == T.DENOISE for st in plan.stages):
        limit, why = limit - 1, f"max_positions {limit} less the de-noising BOS"
    for n, seq in enumerate(sequences):
        if len(seq) > limit:
            raise ConfigError(f"corpus sequence {n} has {len(seq)} tokens, "
                              f"more than {limit} ({why})")
        ids = np.asarray(seq)
        bad = ids[(ids < 0) | (ids >= cfg.vocab_size)]
        if bad.size:
            raise ConfigError(f"corpus sequence {n} holds token id {bad[0]}, "
                              f"outside [0, vocab_size {cfg.vocab_size})")


def _plan_from_dict(d):
    """An inline plan: each part gets only the keys given, so its defaults hold."""
    model = _build(M.ModelConfig, _require(_object(d, "an inline plan"), "model"), "model")
    stages = []
    for n, s in enumerate(_nonempty_list(d, "stages", "stage")):
        stage = dict(_object(s, f"stage {n}"))
        stage["lr"] = _build(T.LrSchedule, _require(s, "lr"), "lr")
        stage["noise"] = _build(D.NoiseConfig, s.get("noise", {}), "noise")
        stages.append(_build(T.TrainStage, stage, f"stage {n}"))
    init = _build(T.PlanInit, d.get("init", {}), "init")
    return T.TrainPlan(name=_require(d, "name"), model=model, stages=stages, init=init)


def _nonempty_list(d, field, what):
    value = d.get(field)
    if not (isinstance(value, list) and value):
        raise ConfigError(f"config field '{field}' must list at least one {what}, "
                          f"got {value!r}")
    return value


# ---------------------------------------------------------------------------
# pack


def load_packed(path):
    with open(os.path.join(path, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    flat = np.fromfile(os.path.join(path, "packed.bin"), dtype="<i4")
    expected = sum(manifest["sequence_lengths"])
    if flat.size != expected:
        raise ConfigError(f"packed.bin holds {flat.size} ids but the manifest's "
                          f"sequence_lengths sum to {expected}")
    seqs, pos = [], 0
    for length in manifest["sequence_lengths"]:
        seqs.append(flat[pos : pos + length].tolist())
        pos += length
    return seqs


def cmd_pack(cfg):
    out = _require(cfg, "out")
    target_len, budget = cfg.get("target_len", 64), cfg.get("vocab_budget", 256)
    for field, value, least in (("target_len", target_len, 2),
                                ("vocab_budget", budget, D.NUM_SPECIALS)):
        if not _is_int(value):
            raise ConfigError(f"config field '{field}' must be an int, got {value!r}")
        if value < least:  # a packed sequence holds two ids; a vocabulary, the specials
            raise ConfigError(f"config field '{field}' must be at least {least}, got {value}")
    docs = _read(cfg, "corpus", D.read_corpus)
    if not any(toks for toks, _ in docs):  # nothing to pack: no sequence, no manifest
        raise ConfigError(f"config field 'corpus': {cfg['corpus']} holds no tokens")
    vocab = D.build_vocab((toks for toks, _ in docs), budget)
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
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost


def cmd_cost(out, cfg=None):
    """Print, and with `out` write, the cost table of the inline plans that
    config `cfg` lists, or without a config that of the registry and Table 1's
    savings."""
    table1 = cfg is None
    plans = P.registry_plans() if table1 else costmod.charge_donors(
        [_plan_from_dict(d) for d in _nonempty_list(cfg, "plans", "inline plan")])
    costs = [costmod.tu_cost(p) for p in plans]
    table = costmod.cost_table(costs)
    records = costmod.cost_records(costs)
    print(table)
    if table1:
        baseline = [P.registry_plan("roberta-12e"), P.registry_plan("bart-12e12d")]
        candidates = [P.registry_plan("2stage-bart-12e12d"),
                      P.registry_plan("2stage-bart-12e12d-unfrz")]
        cmp = costmod.compare_recipes(candidates, baseline)
        savings = {
            "baseline_tu": costmod.render_tu(cmp["baseline_tu"]),
            "rows": [{"plan": r["plan"], "total_tu": costmod.render_tu(r["total_tu"]),
                      "savings": costmod.render_percent(r["savings"])}
                     for r in cmp["rows"]],
        }
        for row in savings["rows"]:
            print(f"{row['plan']}: {row['total_tu']} TU, saves {row['savings']} "
                  f"vs baseline {savings['baseline_tu']} TU")
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "cost.txt"), "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        D.write_jsonl(os.path.join(out, "cost.jsonl"), records)
        if table1:
            _write_json(os.path.join(out, "savings.json"), savings)
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune / evaluate


# the fields of a task row, by kind: each a string or a list of strings; the
# first is the encoder input
_ROW_FIELDS = {"generation": {"source": str, "target": str},
               "classification": {"text": str, "label": str},
               "labeling": {"tokens": list, "labels": list}}


def _read_vocab(cfg, mcfg):
    """The vocabulary of config field `vocab`: no larger than the checkpoint's."""
    vocab = _read(cfg, "vocab", D.Vocab.load)
    if len(vocab) > mcfg.vocab_size:
        raise ConfigError(f"config field 'vocab': {len(vocab)} tokens, more than "
                          f"vocab_size {mcfg.vocab_size} of the checkpoint")
    return vocab


def _read_task(cfg, split, vocab, mcfg, labels=None, teacher_forced=False):
    """(kind, items, labels) of a split, its words encoded by `vocab`; ids
    index `labels`, else the split's sorted labels.  Each encoder input must
    fit the positions of the checkpoint config `mcfg`, and with
    `teacher_forced` each generation target too, after BOS."""
    task = _require(cfg, "task")
    kind = _require(task, "kind")
    if kind not in _ROW_FIELDS:
        raise ConfigError(f"unknown task kind: {kind}")
    rows = _read(task, split, D.read_jsonl)
    if not rows:
        raise ConfigError(f"task {split} file is empty: {task[split]}")
    for n, r in enumerate(rows, 1):
        where = f"task {split} row {n} ({task[split]})"
        if not isinstance(r, dict):
            raise ConfigError(f"{where} must be a JSON object, got {type(r).__name__}")
        for key, typ in _ROW_FIELDS[kind].items():
            value = r.get(key)
            if not (isinstance(value, typ)
                    and (typ is str or all(isinstance(v, str) for v in value))):
                raise ConfigError(f"{where} field '{key}' must be "
                                  f"{'a string' if typ is str else 'a list of strings'}, "
                                  f"got {value!r}")
        source = r[next(iter(_ROW_FIELDS[kind]))]
        n_source = len(source if kind == "labeling" else D.tokenize(source))
        # an encoder input without a token gives no state to score or decode from
        if not n_source:
            raise ConfigError(f"{where} has no tokens")
        if kind == "labeling" and len(r["labels"]) != n_source:
            raise ConfigError(f"{where} has {n_source} tokens but {len(r['labels'])} labels")
        if n_source > mcfg.max_positions:
            raise ConfigError(f"{where} has {n_source} tokens, more than "
                              f"max_positions {mcfg.max_positions} of the checkpoint")
        if teacher_forced and kind == "generation":
            n_target = len(D.tokenize(r["target"])) + 1  # the decoder input gains BOS
            if n_target > mcfg.max_positions:
                raise ConfigError(f"{where} target has {n_target} tokens with BOS, more than "
                                  f"max_positions {mcfg.max_positions} of the checkpoint")
    if kind == "generation":
        return kind, [(vocab.encode(D.tokenize(r["source"])),
                       vocab.encode(D.tokenize(r["target"]))) for r in rows], None
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
    # word-level tokens: one subword each, so word i starts at position i
    return kind, [(vocab.encode(r["tokens"]), list(range(len(r["tokens"]))),
                   [lab_id[l] for l in r["labels"]]) for r in rows], labels


def cmd_finetune(cfg):
    out = _require(cfg, "out")
    seeds = cfg.get("seeds", [cfg["seed"]])
    if not (isinstance(seeds, list) and seeds and all(_is_int(s) for s in seeds)
            and len(set(seeds)) == len(seeds)):
        raise ConfigError(f"config field 'seeds' must be a non-empty list of distinct "
                          f"ints, got {seeds!r}")
    fcfg = _build(E.FinetuneConfig, cfg.get("finetune", {}), "finetune")
    mcfg, store, _, _ = _read(cfg, "checkpoint", C.load)
    vocab = _read_vocab(cfg, mcfg)
    kind, train_set, labels = _read_task(cfg, "train", vocab, mcfg, teacher_forced=True)
    _, dev_set, _ = _read_task(cfg, "dev", vocab, mcfg, labels, teacher_forced=True)
    values = []
    for seed in seeds:
        if kind == "generation":
            tuned, record = E.finetune_seq2seq(mcfg, store, train_set, dev_set, fcfg, seed)
        else:
            spec = M.HeadSpec(kind=kind, label_count=len(labels),
                              hidden=fcfg.head_hidden)
            tuned, record = E.finetune_classifier(mcfg, store, spec, train_set,
                                                  dev_set, fcfg, seed)
        os.makedirs(out, exist_ok=True)  # at the first write: a config fault leaves no out/
        values.append(record["best"])
        provenance = {"task": kind, "seed": seed, "metric": record["metric"]}
        if labels is not None:  # a head's label names by id, for `evaluate`
            provenance["labels"] = labels
        C.save(os.path.join(out, f"tuned_seed{seed}"), mcfg, tuned, provenance=provenance)
        D.write_jsonl(os.path.join(out, f"report_seed{seed}.jsonl"),
                      [{"seed": seed, "metric": record["metric"],
                        "best": repr(record["best"]),
                        "epochs": [repr(v) for v in record["epochs"]]}])
    agg = E.aggregate_seeds(values)
    _write_json(os.path.join(out, "report.json"),
                {"task": kind, "metric": fcfg.metric,
                 "mean": repr(agg["mean"]), "std": repr(agg["std"]),
                 "seeds": {str(s): repr(v) for s, v in zip(seeds, values)}})
    return EXIT_OK


def cmd_evaluate(cfg):
    out = _require(cfg, "out")
    mcfg, store, manifest, _ = _read(cfg, "checkpoint", C.load)
    # a head tuned by `finetune` names its labels; without them, the eval split's sorted labels
    labels = manifest.get("provenance", {}).get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(l, str) for l in labels)):
        raise ConfigError(f"config field 'checkpoint': provenance labels must be a list "
                          f"of strings, got {labels!r}")
    task = cfg.get("task")
    if isinstance(task, dict) and task.get("kind") == "generation":
        gen = {"max_len": mcfg.max_positions - 1,
               **{k: cfg[k] for k in ("beam_size", "max_len") if k in cfg}}
        gc = _build(E.GenConfig, gen, "beam_size/max_len")
        if gc.max_len > mcfg.max_positions:  # before the eval split is read
            raise ConfigError(f"config field 'max_len': max_len {gc.max_len} exceeds "
                              f"max_positions {mcfg.max_positions} of the checkpoint")
    vocab = _read_vocab(cfg, mcfg)
    kind, eval_set, labels = _read_task(cfg, "eval", vocab, mcfg, labels)
    records = []
    if kind == "generation":
        scores = []  # one (sciem, rouge1, rouge2, rougeL) per item
        for src, tgt in eval_set:
            hyp_text = " ".join(vocab.decode(E.beam_search(mcfg, store, src, gc)))
            gold_text = " ".join(vocab.decode(tgt))
            em, r1, r2, rl = E.sciem(hyp_text, gold_text), *E.rouge(hyp_text, gold_text)
            scores.append((em, r1, r2, rl))
            records.append({"pred": hyp_text, "gold": gold_text, "sciem": em,
                            "rouge1": repr(r1), "rouge2": repr(r2), "rougeL": repr(rl)})
        summary = {k: repr(float(np.mean(col))) for k, col in
                   zip(("sciem", "rouge1", "rouge2", "rougeL"), zip(*scores))}
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
    os.makedirs(out, exist_ok=True)  # after every config check: an exit 2 leaves no out/
    D.write_jsonl(os.path.join(out, "eval_records.jsonl"), records)
    _write_json(os.path.join(out, "eval_summary.json"), summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(prog="deskseq",
                                     description="desk-scale pre-training workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("pretrain", "finetune", "evaluate", "pack", "cost"):
        p = sub.add_parser(verb)
        # `cost` costs the inline plans of a config or the registry (--table1)
        plans = p.add_mutually_exclusive_group(required=True) if verb == "cost" else p
        plans.add_argument("--config", required=verb != "cost")
        if verb == "cost":
            plans.add_argument("--table1", action="store_true")
        if verb in ("pretrain", "finetune"):
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "cost" and args.table1:
            return cmd_cost(args.out)
        cfg = _load_config(args.config, args)
        if args.command == "cost":
            return cmd_cost(cfg.get("out"), cfg)
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
