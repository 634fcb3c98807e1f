"""Named model presets.

`registry_plans` holds the full-scale ten-model registry used for
cost accounting only.  `desk_plan` maps the same names to runnable desk-scale
plans: layer counts preserved, width and step counts scaled down.
"""

from __future__ import annotations

from . import data as D
from . import train as T
from .cost import charge_donors
from .fields import ConfigError, check
from .model import FUSION, STANDARD, ModelConfig

REGISTRY_VOCAB = 250_000
REGISTRY_STEPS = 500_000

MASK_NOISE = D.NoiseConfig(mode=D.SPAN_MASK)


def _registry_cfg(enc, dec, fusion=False):
    return ModelConfig(encoder_layers=enc, decoder_layers=dec, d_model=1024,
                       d_ffn=4096, heads=16, vocab_size=REGISTRY_VOCAB,
                       max_positions=512,
                       cross_attention=FUSION if fusion else STANDARD)


def _pretrain_lr(total_steps, peak=1.5e-4, warmup=5000):
    return T.LrSchedule(peak=peak, total_steps=total_steps,
                        warmup_steps=min(warmup, total_steps), end=5e-6)


def _registry_stage(name, objective, steps, freeze=(), lr=None, lr_offset=0, noise=None):
    return T.TrainStage(name=name, objective=objective, steps=steps,
                        lr=lr or _pretrain_lr(steps), noise=noise, freeze=freeze,
                        lr_offset=lr_offset, batch_tokens=1_000_000)


def registry_plans():
    """The ten-model registry with full-scale step counts, in table order."""
    plans = []
    plans.append(T.TrainPlan(
        name="roberta-12e", model=_registry_cfg(12, 0),
        stages=[_registry_stage("mlm", T.MLM, REGISTRY_STEPS)]))
    for dec, suffix in [(12, ""), (12, "-mask"), (2, ""), (2, "-mask"), (1, "-mask")]:
        plans.append(T.TrainPlan(
            name=f"bart-12e{dec}d{suffix}", model=_registry_cfg(12, dec),
            stages=[_registry_stage("denoise", T.DENOISE, REGISTRY_STEPS,
                                    noise=MASK_NOISE if suffix else None)]))
    plans.append(T.TrainPlan(
        name="bart-12e12d+mlm", model=_registry_cfg(12, 0),
        init=T.PlanInit("extract", "bart-12e12d"),
        stages=[_registry_stage("continued-mlm", T.MLM, 100_000,
                                lr=_pretrain_lr(100_000, peak=1e-4, warmup=1000))]))
    for suffix, fusion in [("", False), ("-attn-f", True)]:
        plans.append(T.TrainPlan(
            name=f"2stage-bart-12e12d{suffix}", model=_registry_cfg(12, 12, fusion=fusion),
            init=T.PlanInit("warm_start", "roberta-12e"),
            stages=[_registry_stage("denoise-frozen", T.DENOISE, REGISTRY_STEPS,
                                    freeze=("Encoder",))]))
    shared = _pretrain_lr(350_000)
    plans.append(T.TrainPlan(
        name="2stage-bart-12e12d-unfrz", model=_registry_cfg(12, 12),
        init=T.PlanInit("warm_start", "roberta-12e"),
        stages=[
            _registry_stage("denoise-frozen", T.DENOISE, 200_000,
                            freeze=("Encoder",), lr=shared, lr_offset=0),
            _registry_stage("denoise-unfrozen", T.DENOISE, 150_000,
                            lr=shared, lr_offset=200_000),
        ]))
    return charge_donors(plans)


def registry_plan(name):
    for p in registry_plans():
        if p.name == name:
            return p
    raise KeyError(f"unknown preset: {name}")


# ---------------------------------------------------------------------------
# desk scale


def desk_cfg(enc, dec, *, vocab_size=256, d_model=64, d_ffn=128, heads=4,
             max_positions=80, fusion=False, dropout=0.1):
    return ModelConfig(encoder_layers=enc, decoder_layers=dec, d_model=d_model,
                       d_ffn=d_ffn, heads=heads, vocab_size=vocab_size,
                       max_positions=max_positions,
                       cross_attention=FUSION if fusion else STANDARD,
                       dropout=dropout)


def desk_plan(name, *, steps_per_100k=40, batch_size=8, peak_lr=1e-3,
              warmup=50, **cfg_kw):
    """Desk-scale version of a registry preset: same layer counts, objectives,
    freeze structure and init kind; widths and step counts scaled down, and a
    donor charged as its own desk plan at this scale."""
    check("steps_per_100k", steps_per_100k, "int", 1)
    check("warmup", warmup, "int", 0)
    check("peak_lr", peak_lr, "float")
    if not peak_lr > 0:
        raise ConfigError(f"peak_lr must be > 0, got {peak_lr!r}")
    full = registry_plan(name)
    pm = full.model
    cfg = desk_cfg(pm.encoder_layers, pm.decoder_layers,
                   fusion=(pm.cross_attention == FUSION), **cfg_kw)
    total = sum(st.steps for st in full.stages)
    scale = steps_per_100k / 100_000
    scaled_total = max(1, round(total * scale))
    shared = T.LrSchedule(peak=peak_lr, total_steps=scaled_total,
                          warmup_steps=min(warmup, scaled_total // 4),
                          end=peak_lr / 20)
    stages = []
    offset = 0
    for st in full.stages:
        steps = max(1, round(st.steps * scale))
        stages.append(T.TrainStage(
            name=st.name, objective=st.objective, steps=steps, lr=shared,
            noise=st.noise, freeze=st.freeze, lr_offset=offset,
            batch_size=batch_size, batch_tokens=batch_size * cfg.max_positions))
        offset += steps
    plan = T.TrainPlan(name=full.name, model=cfg, stages=stages, init=full.init)
    donors = [desk_plan(full.init.path, steps_per_100k=steps_per_100k, batch_size=batch_size,
                        peak_lr=peak_lr, warmup=warmup, **cfg_kw)] if full.init.path else []
    return charge_donors(donors + [plan])[-1]

