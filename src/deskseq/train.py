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
import re
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import data as D
from . import model as M
from .fields import ConfigError, check, check_fields
from .optim import OptimState, adam_step


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# learning-rate schedules

WARMUP_FLOOR = 1e-7  # where an exponential warm-up starts


@dataclass
class LrSchedule:
    peak: float
    total_steps: int
    warmup_steps: int = 0
    warmup_kind: str = "linear"  # "linear" (from 0) | "exponential" (from WARMUP_FLOOR)
    end: float = 0.0

    def __post_init__(self):
        check_fields(self, {"total_steps": 0, "warmup_steps": 0, "end": 0},
                     {"warmup_kind": ("linear", "exponential")})
        if self.warmup_steps > self.total_steps:
            raise ConfigError("warmup_steps must not exceed total_steps")
        if not self.peak > self.end:
            raise ConfigError(f"peak must be > end {self.end!r}, got {self.peak!r}")


def lr_at(s, step):
    if not 0 <= step <= s.total_steps:
        raise ValueError(f"step {step} outside schedule range [0, {s.total_steps}]")
    if s.warmup_steps > 0 and step < s.warmup_steps:
        frac = step / s.warmup_steps
        if s.warmup_kind == "linear":
            return s.peak * frac
        return WARMUP_FLOOR * (s.peak / WARMUP_FLOOR) ** frac  # geometric interpolation
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


def apply_freeze_plan(store, freeze):
    """Set trainability exactly per the stage's freeze set; everything not
    named stays trainable.  Tied names share storage, so freezing any member
    of a tie group freezes the group."""
    check("freeze", freeze, "list[str]", choices=tuple(FREEZE_TAGS))
    store.set_all_trainable(True)
    for tag in sorted(freeze):
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
# the noise modes each objective corrupts by; the first is a stage's default
_NOISE_MODES = {MLM: (D.MLM_MASK,), DENOISE: (D.SPAN_DROP, D.SPAN_MASK)}


@dataclass
class TrainStage:
    name: str
    objective: str  # MLM | DENOISE
    steps: int
    lr: LrSchedule
    noise: D.NoiseConfig | None = None  # None: the objective's first mode (see _NOISE_MODES)
    freeze: list[str] = ()  # FREEZE_TAGS keys
    lr_offset: int = 0  # lets stages share one continuous schedule
    batch_size: int = 8  # packed sequences per update
    batch_tokens: int = 1_000_000  # nominal batch scale, used for cost accounting

    def __post_init__(self):
        check_fields(self, {"steps": 1, "lr_offset": 0, "batch_size": 1, "batch_tokens": 1},
                     {"objective": tuple(_NOISE_MODES), "freeze": tuple(FREEZE_TAGS)})
        if not re.fullmatch(r"[A-Za-z0-9._+-]+", self.name):  # it names the stage's trace file
            raise ConfigError(f"name must be letters, digits and ._+- only, got {self.name!r}")
        modes = _NOISE_MODES[self.objective]
        self.noise = D.NoiseConfig(mode=modes[0]) if self.noise is None else self.noise
        if self.noise.mode not in modes:
            raise ConfigError(f"stage {self.name}: {self.objective} needs noise mode "
                              f"{' or '.join(modes)}, got {self.noise.mode}")
        last = self.lr_offset + self.steps - 1  # the schedule step of the stage's last update
        if last > self.lr.total_steps:
            raise ConfigError(f"stage {self.name}: steps {self.lr_offset}..{last} outside "
                              f"schedule range [0, {self.lr.total_steps}]")


@dataclass
class PlanInit:
    kind: str = "random"
    path: str | None = None

    def __post_init__(self):
        check_fields(self, {}, {"kind": ("random", "checkpoint", "warm_start", "extract")})
        if self.kind == "random" and self.path is not None:  # `cost` would charge it a donor
            raise ConfigError(f"a random init starts from no plan, got path {self.path!r}")


@dataclass
class TrainPlan:
    name: str
    model: M.ModelConfig
    stages: list
    init: PlanInit = field(default_factory=PlanInit)
    inherited_tu: list = field(default_factory=list)  # [(donor, TU)]: set by cost.charge_donors

    def __post_init__(self):
        """The model each step sees: de-noising and a warm start need a
        decoder, MLM and an extraction a model without one."""
        check_fields(self, {}, {})
        if not self.stages:  # else a run that trains nothing and a cost of 0
            raise ConfigError(f"plan {self.name} has no stages")
        dec = self.model.decoder_layers > 0
        need = "requires a model without a decoder" if dec else "requires a decoder"
        if self.init.kind in ("warm_start", "extract") and dec != (self.init.kind == "warm_start"):
            raise ConfigError(f"init {self.init.kind} {need}")
        for st in self.stages:
            if dec != (st.objective == DENOISE):
                raise ConfigError(f"stage {st.name}: {'MLM' if dec else 'de-noising'} {need}")


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
    inputs, labels = zip(*[D.mlm_corrupt(s, nc, rng, vocab_size) for s, rng in zip(seqs, rngs)])
    tokens = pad_batch(inputs, D.PAD)
    return tokens, pad_batch(labels, ag.IGNORE), tokens != D.PAD


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


# The two losses hand the encoder states straight to their reader, holding no
# local: a state no closure saved is freed before the loss is built.


def mlm_step_loss(cfg, store, tokens, labels, pad_mask, train_rng=None):
    logits = M.mlm_logits(store, M.encoder_output(
        store, M.encoder_forward(cfg, store, tokens, pad_mask, train_rng=train_rng)))
    flat = ag.reshape(logits, (-1, cfg.vocab_size))
    return ag.softmax_cross_entropy(flat, labels.reshape(-1))


def denoise_step_loss(cfg, store, src_tokens, src_mask, dec_in, labels, train_rng=None):
    logits = M.decoder_forward(cfg, store, dec_in, M.encoder_forward(
        cfg, store, src_tokens, src_mask, train_rng=train_rng), src_mask, train_rng=train_rng)
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
        if stage.objective == MLM:  # module globals, looked up per call: perfbench wraps them
            batch = make_mlm_batch(batch_seqs, stage.noise, cfg.vocab_size, slot_rngs)
            loss = mlm_step_loss(cfg, store, *batch, train_rng=drop_rng)
        else:
            batch = make_denoise_batch(batch_seqs, stage.noise, slot_rngs)
            loss = denoise_step_loss(cfg, store, *batch, train_rng=drop_rng)
        value = train_step(store, loss, opt_state, lr, 0.0,
                           f"stage '{stage.name}' step {step_base + step}")
        trace.append({"step": step_base + step, "stage": stage.name,
                      "lr": lr, "loss": value})
    return trace


def init_plan_store(plan, seed, donor=None):
    """The store `plan` starts from: the `donor` itself for `checkpoint`, else
    `model.build_store` of the plan's model from `seed` (`random`, which reads
    no donor) or from the donor's encoder (`warm_start`, `extract`)."""
    cfg, kind = plan.model, plan.init.kind
    if kind == "random":
        return M.build_store(cfg, seed)
    if donor is None:
        raise ValueError(f"{kind} plan requires a donor store")
    return donor if kind == "checkpoint" else M.build_store(cfg, seed, donor)


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

EVAL_BATCH = 16  # items per no-grad scoring forward: teacher-forced pairs, task-head items


def eval_denoise_loss(cfg, store, pairs):
    """Teacher-forced mean token NLL over fixed (source, target) pairs."""
    total_nll, total_tok = 0.0, 0
    with ag.no_grad():
        for i in range(0, len(pairs), EVAL_BATCH):
            batch = pad_pairs(pairs[i : i + EVAL_BATCH])  # ends in the labels
            n = int((batch[-1] != ag.IGNORE).sum())
            total_nll += denoise_step_loss(cfg, store, *batch).item() * n
            total_tok += n
    return total_nll / max(total_tok, 1)
