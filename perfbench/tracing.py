"""Timing wrappers around deskseq's public functions, for the traced run.

`Probe.install` replaces functions in the deskseq modules (every binding of
each, so `from .optim import adam_step` copies are caught too) and
`Probe.uninstall` puts the originals back.  Nothing here edits the program:
the end-to-end figures come from runs that never install a probe.

Time and counts accumulate per phase.  The benchmark names the phase
(`mlm`, `frozen`, `unfrozen`, `ckpt`, `beam`, `score`, `ft`, `eval`); the
probe itself switches to `ftdev` while fine-tuning evaluates its dev set.
Each autograd op is charged to a model component, keyed by the parameter
the model read last (`ParameterStore.__getitem__`): ops between two
parameter reads belong to the block whose weights came before them.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

from deskseq import autograd as ag
from deskseq import checkpoint as C
from deskseq import data as D
from deskseq import evalft as E
from deskseq import model as M
from deskseq import optim as O
from deskseq import train as T
from deskseq.params import ParameterStore

now = time.perf_counter

OPS = ("matmul", "add", "transpose", "reshape", "scale", "softmax", "layer_norm",
       "gelu", "embedding", "softmax_cross_entropy", "mix", "gather_rows", "dropout")
PRETRAIN = ("mlm", "frozen", "unfrozen")
COMPONENTS = ("embed", "enc.attn", "enc.ffn", "dec.self", "dec.cross", "dec.ffn",
              "lm_head", "mlm_head", "final_ln")

_BLOCK = {"enc": {"ln1": "attn", "attn": "attn", "ln2": "ffn", "ffn": "ffn"},
          "dec": {"ln1": "self", "self": "self", "ln2": "cross", "cross": "cross",
                  "ln3": "ffn", "ffn": "ffn"}}


def component_of(name):
    parts = name.split(".")
    if parts[0] == "embed" or name.startswith("dec.embed."):
        return "embed"
    if parts[0] in _BLOCK and parts[1].isdigit():
        return f"{parts[0]}.{_BLOCK[parts[0]].get(parts[2], parts[2])}"
    if parts[1:2] == ["final_ln"]:
        return "final_ln"
    return parts[0]  # lm_head, mlm_head, head, fusion


class Probe:
    def __init__(self):
        self.current = "setup"
        self.component = "other"
        self.acc = defaultdict(float)  # (phase, key) -> seconds or count
        self._patches = []
        self._depth = 0
        self._closure_s = 0.0

    # -- called by the benchmark ------------------------------------------

    def phase(self, name):
        self.current = name

    def add(self, key, value):
        self.acc[(self.current, key)] += value

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "deskseq" or n.startswith("deskseq.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        for op in OPS:
            fn = getattr(ag, op)
            self._patch_everywhere(fn, self._op(op, fn))
        self._patch_everywhere(ag.backward, self._backward(ag.backward))
        for mod, name, key, count in (
                (M, "encoder_forward", "encoder_forward", None),
                (M, "decoder_forward", "decoder_forward", self._count_positions),
                (M, "head_features", "head_features", None),
                (M, "head_forward", "head_forward", None),
                (T, "make_mlm_batch", "batch", self._count_tokens),
                (T, "make_denoise_batch", "batch", self._count_tokens),
                (T, "mlm_step_loss", "loss", None),
                (T, "denoise_step_loss", "loss", None),
                (D, "mlm_corrupt", "corrupt", None),
                (D, "denoise_corrupt", "corrupt", None),
                (O, "adam_step", "adam", self._count_update),
                (C, "save", "save", self._count_bytes),
                (E, "beam_search", "beam_search", None),
                (E, "finetune_classifier", "finetune", None)):
            fn = getattr(mod, name)
            self._patch_everywhere(fn, self._span(key, fn, count))
        # private in evalft today; without it the dev-evaluation figures read 0
        if hasattr(E, "_head_metric"):
            self._patch_everywhere(E._head_metric, self._dev_eval(E._head_metric))
        self._patch(ParameterStore, "__getitem__", self._getitem(ParameterStore.__getitem__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _getitem(self, fn):
        probe, cache = self, {}

        def getitem(store, name):
            comp = cache.get(name)
            if comp is None:
                comp = cache[name] = component_of(name)
            probe.component = comp
            return fn(store, name)
        return getitem

    def _op(self, name, fn):
        probe, acc = self, self.acc

        def op(*args, **kwargs):
            if probe._depth:
                return fn(*args, **kwargs)
            phase, comp = probe.current, probe.component
            probe._depth += 1
            t = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                probe._depth -= 1
            dt = now() - t
            acc[(phase, "fwd." + name)] += dt
            acc[(phase, "comp." + comp)] += dt
            acc[(phase, "ops")] += 1
            # an op may hand back its input unchanged (dropout with p == 0)
            if out._backward is not None and all(out is not a for a in args):
                acc[(phase, "tape_nodes")] += 1
                out._backward = probe._closure(name, out._backward)
            return out
        return op

    def _closure(self, name, fn):
        probe = self

        def closure(g):
            t = now()
            grads = fn(g)
            dt = now() - t
            probe.acc[(probe.current, "bwd." + name)] += dt
            probe._closure_s += dt
            return grads
        return closure

    def _backward(self, fn):
        probe = self

        def backward(loss):
            before = probe._closure_s
            t = now()
            fn(loss)
            dt = now() - t
            probe.acc[(probe.current, "backward")] += dt
            probe.acc[(probe.current, "walk")] += dt - (probe._closure_s - before)
        return backward

    def _span(self, key, fn, count):
        probe = self

        def span(*args, **kwargs):
            phase = probe.current
            t = now()
            out = fn(*args, **kwargs)
            probe.acc[(phase, key)] += now() - t
            probe.acc[(phase, key + ".calls")] += 1
            if count is not None:
                count(phase, args, out)
            return out
        return span

    def _dev_eval(self, fn):
        probe = self

        def head_metric(cfg, ft, spec, dev_set, metric):
            outer = probe.current
            probe.current = "ftdev" if outer == "ft" else outer
            t = now()
            try:
                return fn(cfg, ft, spec, dev_set, metric)
            finally:
                probe.acc[(probe.current, "dev_eval")] += now() - t
                probe.acc[(probe.current, "dev_items")] += len(dev_set)
                probe.acc[(probe.current, "dev_evals")] += 1
                probe.current = outer
        return head_metric

    # -- counters -------------------------------------------------------------

    def _count_positions(self, phase, args, out):
        b, s = np.asarray(args[2]).shape
        self.acc[(phase, "dec_positions")] += b * s
        self.acc[(phase, "dec_rows")] += b

    def _count_tokens(self, phase, args, out):
        if len(out) == 3:  # mlm: tokens, labels, pad mask
            n = int(out[2].sum())
        else:  # de-noising: source, source mask, decoder input, labels
            n = int(out[1].sum()) + int((out[3] != ag.IGNORE).sum())
        self.acc[(phase, "tokens")] += n

    def _count_update(self, phase, args, out):
        grads = args[1]
        self.acc[(phase, "updates")] += 1
        self.acc[(phase, "tensors_updated")] += len(grads)
        self.acc[(phase, "elements_updated")] += sum(np.asarray(g).size for g in grads.values())

    def _count_bytes(self, phase, args, out):
        path = args[0]
        self.acc[(phase, "bytes")] += sum(os.path.getsize(os.path.join(path, f))
                                          for f in os.listdir(path))

    # -- per-layer metrics --------------------------------------------------

    def total(self, phases, key):
        return sum(self.acc[(p, key)] for p in phases)

    def metrics(self, overhead_pct):
        """Per-layer figures: per pre-training update unless the name says
        otherwise (see README.md)."""
        def per(value, n, scale=1.0):
            return value * scale / n if n else 0.0

        def pre(key):
            return self.total(PRETRAIN, key)

        ms = 1000.0
        updates = pre("updates")
        ft_updates = self.acc[("ft", "updates")]
        out = {}
        for op in OPS:
            if op == "mix":  # fusion models are not in the journey
                continue
            phases, n = (("ft",), ft_updates) if op == "gather_rows" else (PRETRAIN, updates)
            out[f"autograd.fwd_ms.{op}"] = per(self.total(phases, "fwd." + op), n, ms)
            out[f"autograd.bwd_ms.{op}"] = per(self.total(phases, "bwd." + op), n, ms)
        out["autograd.bwd_ms.embedding.frozen"] = per(
            self.acc[("frozen", "bwd.embedding")], self.acc[("frozen", "updates")], ms)
        out["autograd.walk_ms"] = per(pre("walk"), updates, ms)
        out["autograd.ops"] = per(pre("ops"), updates)
        out["autograd.tape_nodes"] = per(pre("tape_nodes"), updates)
        out["model.encoder_forward_ms"] = per(pre("encoder_forward"), updates, ms)
        out["model.decoder_forward_ms"] = per(pre("decoder_forward"), updates, ms)
        out["model.head_features_ms"] = per(self.acc[("ft", "head_features")], ft_updates, ms)
        out["model.head_forward_ms"] = per(self.acc[("ft", "head_forward")], ft_updates, ms)
        for comp in COMPONENTS:
            out[f"model.fwd_ms.{comp}"] = per(pre("comp." + comp), updates, ms)
        out["model.fwd_ms.head"] = per(self.acc[("ft", "comp.head")], ft_updates, ms)
        out["data.corrupt_ms"] = per(pre("corrupt"), updates, ms)
        out["data.tokens_per_step"] = per(pre("tokens"), updates)
        out["optim.adam_ms"] = per(pre("adam"), updates, ms)
        out["optim.tensors_updated"] = per(pre("tensors_updated"), updates)
        out["optim.elements_updated"] = per(pre("elements_updated"), updates)
        for stage in ("frozen", "unfrozen"):
            out[f"optim.elements_updated.{stage}"] = per(
                self.acc[(stage, "elements_updated")], self.acc[(stage, "updates")])
        step = per(pre("stage_s"), updates, ms)
        out["train.step_ms"] = step
        out["train.other_ms"] = step - per(
            pre("batch") + pre("loss") + pre("backward") + pre("adam"), updates, ms)
        saves = self.acc[("ckpt", "save.calls")]
        out["checkpoint.save_ms"] = per(self.acc[("ckpt", "save")], saves, ms)
        out["checkpoint.bytes_written"] = per(self.acc[("ckpt", "bytes")], saves)
        tokens = self.acc[("beam", "generated_tokens")]
        enc, dec = self.acc[("beam", "encoder_forward")], self.acc[("beam", "decoder_forward")]
        out["evalft.beam.encoder_ms"] = per(enc, tokens, ms)
        out["evalft.beam.decoder_ms"] = per(dec, tokens, ms)
        out["evalft.beam.select_ms"] = per(self.acc[("beam", "beam_search")] - enc - dec, tokens, ms)
        positions = self.acc[("beam", "dec_positions")]
        out["evalft.beam.decoder_positions_per_token"] = per(positions, tokens)
        out["evalft.beam.useful_position_ratio"] = per(self.acc[("beam", "dec_rows")], positions)
        out["evalft.beam.tape_nodes_per_token"] = per(self.acc[("beam", "tape_nodes")], tokens)
        out["evalft.score.tape_nodes_per_pair"] = per(
            self.acc[("score", "tape_nodes")], self.acc[("score", "pairs")])
        items = self.acc[("ftdev", "dev_items")]
        out["evalft.ft.dev_eval_ms"] = per(self.acc[("ftdev", "dev_eval")], items, ms)
        out["evalft.ft.dev_forward_calls_per_item"] = per(
            self.acc[("ftdev", "head_features.calls")], items)
        out["evalft.ft.dev_evals"] = per(self.acc[("ftdev", "dev_evals")],
                                         self.acc[("ft", "finetune.calls")])
        out["trace.overhead_pct"] = overhead_pct
        return out
