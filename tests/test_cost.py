"""Exact Training-Unit accounting and the preset model registry."""

from fractions import Fraction

import pytest

from deskseq import cost as CO
from deskseq import presets as P
from deskseq import train as T
from deskseq.cost import (compare_recipes, render_percent, render_tu, tu_cost)
from deskseq.fields import ConfigError

PRESET_NAMES = [p.name for p in P.registry_plans()]


def plain_plan(enc, dec, steps, *, d_model=1024, freeze=(), objective=T.DENOISE,
               batch_tokens=1_000_000, name="plan"):
    cfg = P.desk_cfg(enc, dec, d_model=d_model, d_ffn=4 * d_model,
                     heads=max(2, d_model // 64))
    lr = T.LrSchedule(peak=1e-4, total_steps=steps, warmup_steps=0)
    noise = P.MASK_NOISE if objective == T.DENOISE else None
    st = T.TrainStage(name="s", objective=objective, steps=steps, lr=lr,
                      noise=noise, freeze=freeze, batch_tokens=batch_tokens)
    return T.TrainPlan(name=name, model=cfg, stages=[st])


class TestRendering:
    def test_round_half_up_at_exact_halves(self):
        assert render_tu(Fraction(25, 2)) == "12.5"
        assert render_tu(Fraction(115, 20)) == "5.8"  # 5.75 rounds up
        assert render_tu(Fraction(1, 16)) == "0.1"  # 0.0625
        assert render_tu(Fraction(0)) == "0.0"

    def test_percent_rounds_to_integers(self):
        assert render_percent(Fraction(1, 6)) == "17%"
        assert render_percent(Fraction(4, 15)) == "27%"
        assert render_percent(Fraction(1, 2)) == "50%"


class TestUnitDefinition:
    def test_reference_run_costs_one_tu(self):
        plan = plain_plan(12, 0, 100_000, objective=T.MLM)
        assert tu_cost(plan).total_tu == Fraction(1)

    def test_cost_scales_linearly_in_each_factor(self):
        base = tu_cost(plain_plan(12, 0, 100_000, objective=T.MLM)).total_tu
        assert tu_cost(plain_plan(6, 0, 100_000, objective=T.MLM)).total_tu == base / 2
        assert tu_cost(plain_plan(12, 0, 200_000, objective=T.MLM)).total_tu == base * 2
        assert tu_cost(plain_plan(12, 0, 100_000, objective=T.MLM,
                                  d_model=512)).total_tu == base / 2
        assert tu_cost(plain_plan(12, 0, 100_000, objective=T.MLM,
                                  batch_tokens=500_000)).total_tu == base / 2

    def test_decoder_layers_only_charged_for_denoising(self):
        """An MLM stage cannot run on a model with a decoder: that plan is
        refused when built, so no stage charges decoder layers it does not run."""
        with pytest.raises(ValueError, match="stage s: MLM requires a model without a decoder"):
            plain_plan(12, 12, 100_000, objective=T.MLM)
        den = plain_plan(12, 12, 100_000, objective=T.DENOISE)
        assert tu_cost(den).total_tu == Fraction(2)

    def test_frozen_component_costs_half(self):
        full = tu_cost(plain_plan(12, 12, 100_000)).total_tu
        frz = tu_cost(plain_plan(12, 12, 100_000, freeze=("Encoder",))).total_tu
        assert frz == full - Fraction(1, 2)
        assert frz < full  # freezing never raises cost

    def test_stage_costs_are_additive(self):
        cfg = P.desk_cfg(12, 12, d_model=1024, d_ffn=4096, heads=16)
        lr = T.LrSchedule(peak=1e-4, total_steps=300_000, warmup_steps=0)
        two = T.TrainPlan(name="two", model=cfg, stages=[
            T.TrainStage(name="a", objective=T.DENOISE, steps=200_000, lr=lr,
                         noise=P.MASK_NOISE, freeze=("Encoder",)),
            T.TrainStage(name="b", objective=T.DENOISE, steps=100_000, lr=lr,
                         noise=P.MASK_NOISE, lr_offset=200_000),
        ])
        cost = tu_cost(two)
        assert cost.stages[0].total_tu == Fraction(3)  # 1 + 2 with half encoder
        assert cost.stages[1].total_tu == Fraction(2)
        assert cost.total_tu == Fraction(5)

    def test_zero_layer_plan_rejected(self):
        """`ModelConfig` refuses the model, so no plan holds one to cost."""
        with pytest.raises(ConfigError, match=r"encoder_layers \+ decoder_layers must be >= 1"):
            plain_plan(0, 0, 100, objective=T.MLM)


class TestRegistryCosts:
    EXPECTED = {
        "roberta-12e": "5.0",
        "bart-12e12d": "10.0",
        "bart-12e12d-mask": "10.0",
        "bart-12e2d": "5.8",
        "bart-12e2d-mask": "5.8",
        "bart-12e1d-mask": "5.4",
        "bart-12e12d+mlm": "11.0",
        "2stage-bart-12e12d": "12.5",
        "2stage-bart-12e12d-attn-f": "12.5",
        "2stage-bart-12e12d-unfrz": "11.0",
    }

    def test_all_ten_totals(self):
        plans = P.registry_plans()
        assert [p.name for p in plans] == list(self.EXPECTED)
        for p in plans:
            assert render_tu(tu_cost(p).total_tu) == self.EXPECTED[p.name], p.name

    def test_two_stage_savings_versus_sequential_baseline(self):
        baseline = [P.registry_plan("roberta-12e"), P.registry_plan("bart-12e12d")]
        report = compare_recipes([P.registry_plan("2stage-bart-12e12d"),
                                  P.registry_plan("2stage-bart-12e12d-unfrz")], baseline)
        assert report["baseline_tu"] == Fraction(15)
        savings = {r["plan"]: render_percent(r["savings"]) for r in report["rows"]}
        assert savings["2stage-bart-12e12d"] == "17%"
        assert savings["2stage-bart-12e12d-unfrz"] == "27%"

    def test_inherited_cost_is_included(self):
        plan = P.registry_plan("bart-12e12d+mlm")
        cost = tu_cost(plan)
        assert cost.inherited == [("bart-12e12d", Fraction(10))]
        # the continued stage itself: 12 enc layers x 100k steps = 1 TU
        assert cost.total_tu - Fraction(10) == Fraction(1)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown preset"):
            P.registry_plan("gpt-96e")


class TestDonorCharges:
    """A plan inherits the total TU of the donor plan its `init.path` names."""

    def test_chains_through_earlier_plans_only(self):
        plans = [plain_plan(12, 0, 100_000, objective=T.MLM, name=n) for n in "abcde"]
        for plan, path in zip(plans, ["x", "a", "b", "e", None]):
            plan.init = T.PlanInit("checkpoint" if path else "random", path)
        assert CO.charge_donors(plans) is plans
        assert [p.inherited_tu for p in plans] == [[], [("a", Fraction(1))],
                                                   [("b", Fraction(2))], [], []]
        assert [tu_cost(p).total_tu for p in plans] == [1, 2, 3, 1, 1]

    def test_desk_totals_and_savings(self):
        desk = {name: P.desk_plan(name) for name in PRESET_NAMES}
        assert tu_cost(desk["roberta-12e"]).total_tu == Fraction(1, 12_500_000)
        assert tu_cost(desk["2stage-bart-12e12d-unfrz"]).total_tu == Fraction(11, 62_500_000)
        report = compare_recipes([desk["2stage-bart-12e12d"], desk["2stage-bart-12e12d-unfrz"]],
                                 [desk["roberta-12e"], desk["bart-12e12d"]])
        assert report["baseline_tu"] == Fraction(15, 62_500_000)
        assert [r["savings"] for r in report["rows"]] == [Fraction(1, 6), Fraction(4, 15)]
        assert [render_percent(r["savings"]) for r in report["rows"]] == ["17%", "27%"]

    @pytest.mark.parametrize("scale", [{"steps_per_100k": 40}, {"steps_per_100k": 4},
                                       {"steps_per_100k": 4, "batch_size": 2, "d_model": 32}])
    def test_desk_total_is_own_stages_plus_donor_desk_total(self, scale):
        donors = {}
        for name in PRESET_NAMES:
            plan = P.desk_plan(name, **scale)
            cost = tu_cost(plan)
            own = sum((s.total_tu for s in cost.stages), Fraction(0))
            path = plan.init.path
            inherited = tu_cost(P.desk_plan(path, **scale)).total_tu if path else 0
            assert cost.inherited == ([(path, inherited)] if path else []), name
            assert cost.total_tu == own + inherited, name
            donors[name] = path
        assert {n: d for n, d in donors.items() if d} == {
            "bart-12e12d+mlm": "bart-12e12d", "2stage-bart-12e12d": "roberta-12e",
            "2stage-bart-12e12d-attn-f": "roberta-12e",
            "2stage-bart-12e12d-unfrz": "roberta-12e"}


class TestReports:
    def test_table_contains_every_plan_and_total(self):
        costs = [tu_cost(p) for p in P.registry_plans()]
        table = CO.cost_table(costs)
        for p, total in TestRegistryCosts.EXPECTED.items():
            row = next(l for l in table.splitlines() if l.startswith(p + " "))
            assert row.rstrip().endswith(total)

    def test_records_expose_exact_fractions(self):
        recs = CO.cost_records([tu_cost(P.registry_plan("bart-12e2d"))])
        assert recs[0]["total_tu"] == "5.8"
        num, den = recs[0]["total_tu_exact"]
        assert Fraction(num, den) == Fraction(5) + Fraction(2, 12) * 5

    def test_desk_plans_mirror_registry_structure(self):
        for name in PRESET_NAMES:
            full = P.registry_plan(name)
            desk = P.desk_plan(name)
            assert [s.objective for s in desk.stages] == [s.objective for s in full.stages]
            assert [s.freeze for s in desk.stages] == [s.freeze for s in full.stages]
            assert desk.init.kind == full.init.kind
            assert desk.model.encoder_layers == full.model.encoder_layers
            assert desk.model.decoder_layers == full.model.decoder_layers
