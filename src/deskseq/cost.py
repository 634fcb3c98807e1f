"""Training-Unit (TU) compute-cost accounting over TrainPlans.

One TU is the cost of 100k update steps for 12 model layers at hidden
dimension 1024 and 1M-token batches.  A frozen encoder runs forward-only and
is charged half; the encoder is the only component that can be charged
frozen.  Arithmetic is exact (Fraction); rendering rounds half-up to one
decimal, percentages to whole numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction

REF_LAYERS = 12
REF_STEPS = 100_000
REF_HIDDEN = 1024
REF_BATCH_TOKENS = 1_000_000


@dataclass
class StageCost:
    stage: str
    encoder_tu: Fraction
    decoder_tu: Fraction

    @property
    def total_tu(self):
        return self.encoder_tu + self.decoder_tu


@dataclass
class TUCost:
    plan: str
    inherited: list = field(default_factory=list)  # (label, Fraction)
    stages: list = field(default_factory=list)

    @property
    def total_tu(self):
        return sum((tu for _, tu in self.inherited), Fraction(0)) + \
            sum((s.total_tu for s in self.stages), Fraction(0))


def render_tu(tu):
    """One-decimal rendering with round-half-up."""
    d = Decimal(tu.numerator) / Decimal(tu.denominator)
    return str(d.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def render_percent(frac):
    d = Decimal(frac.numerator) / Decimal(frac.denominator) * 100
    return f"{d.quantize(Decimal('1'), rounding=ROUND_HALF_UP)}%"


def _component_tu(layers, steps, hidden, batch_tokens):
    return (Fraction(layers, REF_LAYERS)
            * Fraction(steps, REF_STEPS)
            * Fraction(hidden, REF_HIDDEN)
            * Fraction(batch_tokens, REF_BATCH_TOKENS))


def tu_cost(plan):
    """Exact per-stage and total TU for a TrainPlan."""
    cfg = plan.model
    cost = TUCost(plan=plan.name, inherited=list(plan.inherited_tu))
    for stage in plan.stages:
        layer_tu = _component_tu(1, stage.steps, cfg.d_model, stage.batch_tokens)
        enc_weight = Fraction(1, 2) if "Encoder" in stage.freeze else 1
        cost.stages.append(StageCost(stage=stage.name,
                                     encoder_tu=enc_weight * cfg.encoder_layers * layer_tu,
                                     decoder_tu=cfg.decoder_layers * layer_tu))
    return cost


def charge_donors(plans):
    """Charge each plan the total TU of the earlier plan its `init.path` names
    (that total holds the donor's own charge), else nothing.  Returns `plans`."""
    totals = {}
    for plan in plans:
        path = plan.init.path
        plan.inherited_tu = [(path, totals[path])] if path in totals else []
        totals[plan.name] = tu_cost(plan).total_tu
    return plans


def compare_recipes(plans, baseline):
    """Savings report against a (encoder plan, seq2seq plan) baseline pair."""
    base_total = sum((tu_cost(p).total_tu for p in baseline), Fraction(0))
    rows = []
    for plan in plans:
        total = tu_cost(plan).total_tu
        savings = Fraction(1) - total / base_total if base_total else Fraction(0)
        rows.append({"plan": plan.name, "total_tu": total, "savings": savings})
    return {"baseline_tu": base_total, "rows": rows}


def cost_table(costs):
    """Plain-text table mirroring the model/compute-cost presentation."""
    lines = [f"{'Model':<28} {'Enc TU':>8} {'Dec TU':>8} {'Inherited':>20} {'Total TU':>9}"]
    for c in costs:
        enc = sum((s.encoder_tu for s in c.stages), Fraction(0))
        dec = sum((s.decoder_tu for s in c.stages), Fraction(0))
        inherited = " + ".join(f"{render_tu(tu)} ({label})" for label, tu in c.inherited) or "-"
        lines.append(f"{c.plan:<28} {render_tu(enc):>8} {render_tu(dec):>8} "
                     f"{inherited:>20} {render_tu(c.total_tu):>9}")
    return "\n".join(lines)


def cost_records(costs):
    """Machine-readable record per plan."""
    out = []
    for c in costs:
        out.append({
            "plan": c.plan,
            "inherited": [{"label": label, "tu": render_tu(tu)} for label, tu in c.inherited],
            "stages": [{"stage": s.stage,
                        "encoder_tu": render_tu(s.encoder_tu),
                        "decoder_tu": render_tu(s.decoder_tu),
                        "total_tu": render_tu(s.total_tu)} for s in c.stages],
            "total_tu": render_tu(c.total_tu),
            "total_tu_exact": [c.total_tu.numerator, c.total_tu.denominator],
        })
    return out
