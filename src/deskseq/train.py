"""Staged training: LR schedules, freeze plans, and declarative TrainPlans.

A plan is an ordered list of stages; each stage fixes an objective (MLM or
de-noising), a step count, a freeze set, and an LR schedule.  Stages thread
model parameters and optimizer state, so unfreezing at a stage boundary picks
up zero moments for the newly trainable parameters.
"""

from __future__ import annotations

import ctypes
import functools
import platform
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import data as D
from . import model as M
from .optim import OptimState, adam_step


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# learning-rate schedules


@dataclass
class LrSchedule:
    peak: float
    total_steps: int
    warmup_steps: int = 0
    warmup_kind: str = "linear"  # "linear" (from 0) | "exponential" (from floor)
    floor: float = 1e-7
    end: float = 0.0

    def __post_init__(self):
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")
        if not (self.peak > self.end >= 0.0):
            raise ValueError("schedule requires peak > end >= 0")
        if self.warmup_kind not in ("linear", "exponential"):
            raise ValueError(f"unknown warmup kind: {self.warmup_kind}")


def lr_at(s, step):
    if not 0 <= step <= s.total_steps:
        raise ValueError(f"step {step} outside schedule range [0, {s.total_steps}]")
    if s.warmup_steps > 0 and step < s.warmup_steps:
        frac = step / s.warmup_steps
        if s.warmup_kind == "linear":
            return s.peak * frac
        return s.floor * (s.peak / s.floor) ** frac  # geometric interpolation
    if s.total_steps == s.warmup_steps:
        return s.peak
    frac = (step - s.warmup_steps) / (s.total_steps - s.warmup_steps)
    return s.peak + (s.end - s.peak) * frac


# ---------------------------------------------------------------------------
# freeze plans

FREEZE_TAGS = {
    "Encoder": ("enc.", "embed."),
    "Embedding": ("embed.",),
}


def check_freeze(freeze):
    """A freeze set as a tuple: it must be a list or tuple of FREEZE_TAGS keys
    (a bare string would read as one tag per letter)."""
    if not isinstance(freeze, (list, tuple)):
        raise ValueError(f"freeze must be a list of tags, got {freeze!r}")
    unknown = [tag for tag in freeze if tag not in FREEZE_TAGS]
    if unknown:
        raise ValueError(f"unknown freeze tag: {unknown[0]}")
    return tuple(freeze)


def apply_freeze_plan(store, freeze):
    """Set trainability exactly per the stage's freeze set; everything not
    named stays trainable.  Tied names share storage, so freezing any member
    of a tie group freezes the group."""
    store.set_all_trainable(True)
    for tag in sorted(check_freeze(freeze)):
        matched = [n for n in store.names() if n.startswith(FREEZE_TAGS[tag])]
        if not matched:
            raise ValueError(f"freeze tag {tag} matches no parameters")
        for name in matched:
            store.set_trainable(name, False)
    return store


# ---------------------------------------------------------------------------
# stages and plans

MLM = "mlm"
DENOISE = "denoise"


@dataclass
class TrainStage:
    name: str
    objective: str  # MLM | DENOISE
    steps: int
    lr: LrSchedule
    noise: D.NoiseConfig
    freeze: tuple = ()
    lr_offset: int = 0  # lets stages share one continuous schedule
    batch_size: int = 8  # packed sequences per update
    batch_tokens: int = 1_000_000  # nominal batch scale, used for cost accounting

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("stage step count must be positive")
        if self.objective not in (MLM, DENOISE):
            raise ValueError(f"unknown objective: {self.objective}")
        self.freeze = check_freeze(self.freeze)


@dataclass
class PlanInit:
    kind: str = "random"  # "random" | "checkpoint" | "warm_start" | "extract"
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("random", "checkpoint", "warm_start", "extract"):
            raise ValueError(f"unknown init kind: {self.kind}")


@dataclass
class TrainPlan:
    name: str
    model: M.ModelConfig
    stages: list
    init: PlanInit = field(default_factory=PlanInit)
    inherited_tu: list = field(default_factory=list)  # [(donor, TU)]: set by cost.charge_donors

    def __post_init__(self):
        if not self.stages:  # else a run that trains nothing and a cost of 0
            raise ValueError(f"plan {self.name} has no stages")
        for st in self.stages:
            if st.objective == DENOISE and self.model.decoder_layers < 1:
                raise ValueError(f"stage {st.name}: de-noising requires a decoder")


# ---------------------------------------------------------------------------
# batching


def pad_batch(rows, fill):
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), fill, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def make_mlm_batch(seqs, nc, vocab_size, rngs):
    """Corrupt and pad a list of id sequences; one RNG per slot."""
    inputs, labels = [], []
    for seq, rng in zip(seqs, rngs):
        inp, lab = D.mlm_corrupt(seq, nc, rng, vocab_size)
        inputs.append(inp)
        labels.append(lab)
    tokens = pad_batch(inputs, D.PAD)
    labs = pad_batch(labels, ag.IGNORE)
    pad_mask = tokens != D.PAD
    return tokens, labs, pad_mask


def pad_pairs(pairs):
    """Pad (source, target) id pairs into (source, source mask, BOS-shifted
    decoder input, labels ending in EOS)."""
    src = pad_batch([s for s, _ in pairs], D.PAD)
    dec_in = pad_batch([[D.BOS] + t for _, t in pairs], D.PAD)
    labels = pad_batch([t + [D.EOS] for _, t in pairs], ag.IGNORE)
    return src, src != D.PAD, dec_in, labels


def make_denoise_batch(seqs, nc, rngs):
    """Corrupt into (source, source mask, decoder input, labels); see `pad_pairs`."""
    return pad_pairs([D.denoise_corrupt(seq, nc, rng) for seq, rng in zip(seqs, rngs)])


def mlm_step_loss(cfg, store, tokens, labels, pad_mask, train_rng=None):
    states = M.encoder_forward(cfg, store, tokens, pad_mask, train_rng=train_rng)
    logits = M.mlm_logits(store, M.encoder_output(store, states))
    flat = ag.reshape(logits, (-1, cfg.vocab_size))
    return ag.softmax_cross_entropy(flat, labels.reshape(-1))


def denoise_step_loss(cfg, store, src_tokens, src_mask, dec_in, labels, train_rng=None):
    states = M.encoder_forward(cfg, store, src_tokens, src_mask, train_rng=train_rng)
    logits = M.decoder_forward(cfg, store, dec_in, states, src_mask, train_rng=train_rng)
    flat = ag.reshape(logits, (-1, cfg.vocab_size))
    return ag.softmax_cross_entropy(flat, labels.reshape(-1))


# ---------------------------------------------------------------------------
# the loop


@functools.cache
def _pin_heap():
    """Fix glibc's malloc thresholds, once per process.  glibc moves its mmap
    and trim thresholds as blocks of some MiB (arenas among them) come and go;
    depending on that history, each update's transient arrays are mmapped or
    trimmed from the heap and faulted back in, thousands of minor page faults
    per desk update.  Fixed thresholds keep them on the heap."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


def train_step(store, loss, opt_state, lr, weight_decay, where):
    """One AdamW update of `store` from a scalar loss; returns the loss value.
    Raises TrainingDiverged, naming `where`, before touching any parameter if
    the loss is not finite.  Gradients and the update go through the store's
    arena, built at its first update (params.py)."""
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite loss at {where}")
    _pin_heap()
    store.zero_grad()
    ag.backward(loss)
    adam_step(store, store.gradient_map(), opt_state, lr, weight_decay)
    return value


def run_stage(cfg, store, sequences, stage, seed, opt_state=None, step_base=0):
    """Execute exactly stage.steps optimizer updates; returns the per-step
    trace [(step, stage, lr, loss)].  Mutates `store` and `opt_state`."""
    if not sequences:
        raise ValueError("run_stage needs a nonempty sequence list")
    if opt_state is None:
        opt_state = OptimState()
    apply_freeze_plan(store, stage.freeze)
    trace = []
    for step in range(stage.steps):
        lr = lr_at(stage.lr, stage.lr_offset + step)
        pick_rng = np.random.default_rng(D.seed_for(seed, 2 * step))
        drop_rng = np.random.default_rng(D.seed_for(seed, 2 * step + 1))
        idx = pick_rng.integers(0, len(sequences), size=stage.batch_size)
        batch_seqs = [sequences[i] for i in idx]
        # per-slot corruption seeds keep results independent of assembly order
        slot_rngs = [np.random.default_rng(np.random.SeedSequence([seed, step, int(s)]))
                     for s in range(stage.batch_size)]
        if stage.objective == MLM:
            tokens, labels, pad_mask = make_mlm_batch(batch_seqs, stage.noise,
                                                      cfg.vocab_size, slot_rngs)
            loss = mlm_step_loss(cfg, store, tokens, labels, pad_mask, train_rng=drop_rng)
        else:
            src, src_mask, dec_in, labels = make_denoise_batch(batch_seqs, stage.noise, slot_rngs)
            loss = denoise_step_loss(cfg, store, src, src_mask, dec_in, labels, train_rng=drop_rng)
        value = train_step(store, loss, opt_state, lr, 0.0,
                           f"stage '{stage.name}' step {step_base + step}")
        trace.append({"step": step_base + step, "stage": stage.name,
                      "lr": lr, "loss": value})
    return trace


def init_plan_store(plan, seed, donor=None):
    """The store `plan` starts from: a random init from `seed`, else one built
    from the `donor` store: the checkpoint to continue (`checkpoint`), the MLM
    encoder to warm-start from (`warm_start`) or the seq2seq model to extract
    the encoder of (`extract`)."""
    cfg, kind = plan.model, plan.init.kind
    if kind == "random":
        init = M.init_mlm_encoder if cfg.decoder_layers == 0 else M.init_seq2seq
        return init(cfg, seed)
    if donor is None:
        raise ValueError(f"{kind} plan requires a donor store")
    if kind == "warm_start":
        return M.warm_start_seq2seq(donor, cfg, seed)
    if kind == "extract":
        return M.extract_encoder(donor, cfg)
    return donor


def run_plan(plan, sequences, seed, donor=None, on_stage_end=None):
    """Run all stages in order; returns (store, per-stage traces, opt_state)."""
    store = init_plan_store(plan, seed, donor)
    opt_state = OptimState()
    traces = []
    step_base = 0
    for k, stage in enumerate(plan.stages):
        stage_seed = int(np.random.SeedSequence([seed, 1000 + k]).generate_state(1)[0])
        trace = run_stage(plan.model, store, sequences, stage, stage_seed,
                          opt_state=opt_state, step_base=step_base)
        traces.append(trace)
        step_base += stage.steps
        if on_stage_end is not None:
            on_stage_end(k, stage, store, opt_state, trace)
    return store, traces, opt_state


# ---------------------------------------------------------------------------
# evaluation helpers

_EVAL_BATCH = 16  # pairs per teacher-forced forward


def eval_denoise_loss(cfg, store, pairs):
    """Teacher-forced mean token NLL over fixed (source, target) pairs."""
    total_nll, total_tok = 0.0, 0
    with ag.no_grad():
        for i in range(0, len(pairs), _EVAL_BATCH):
            src, src_mask, dec_in, labels = pad_pairs(pairs[i : i + _EVAL_BATCH])
            loss = denoise_step_loss(cfg, store, src, src_mask, dec_in, labels)
            n = int((labels != ag.IGNORE).sum())
            total_nll += loss.item() * n
            total_tok += n
    return total_nll / max(total_tok, 1)
