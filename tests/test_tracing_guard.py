"""Guard: the functions perfbench's traced run wraps still exist under the
names it wraps, and a tiny run calls them.

`perfbench/tracing.py`'s `Probe` replaces deskseq functions by name, so a
rename breaks only `perfbench/run.py --trace 1`; for `evalft._head_metric`
it breaks it silently, since the probe skips that name when it is absent.
A per-objective call looked up in a table built at import would hide from
the probe too, and read 0 in `data.tokens_per_step` and `data.corrupt_ms`.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from deskseq import data as D
from deskseq import evalft as E
from deskseq import model as M
from deskseq import train as T
from deskseq.params import ParameterStore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings():
    """Every attribute of every deskseq module, and the store's item access."""
    mods = [m for n, m in sorted(sys.modules.items()) if n.startswith("deskseq")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out["ParameterStore.__getitem__"] = ParameterStore.__getitem__
    return out


def test_an_installed_probe_counts_pretraining_and_dev_evaluation(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = _bindings()
    cfg = M.ModelConfig(encoder_layers=1, decoder_layers=1, d_model=8, d_ffn=16, heads=2,
                        vocab_size=32, max_positions=16)
    enc_cfg = replace(cfg, decoder_layers=0)
    rng = np.random.default_rng(0)
    seqs = [rng.integers(6, 32, size=10).tolist() for _ in range(8)]
    plan = T.TrainPlan(name="p", model=cfg, stages=[T.TrainStage(
        name="s", objective=T.DENOISE, steps=2, lr=T.LrSchedule(peak=1e-3, total_steps=2),
        noise=D.NoiseConfig(mode=D.SPAN_MASK), batch_size=2)])
    mlm_plan = T.TrainPlan(name="m", model=enc_cfg, stages=[T.TrainStage(
        name="s", objective=T.MLM, steps=2, lr=T.LrSchedule(peak=1e-3, total_steps=2),
        batch_size=2)])
    items = [([6 + i % 2] + rng.integers(8, 32, size=4).tolist(), i % 2) for i in range(8)]
    spec = M.HeadSpec(kind="classification", label_count=2, hidden=[4])
    probe = tracing.Probe()
    probe.install()
    try:
        probe.phase("mlm")
        T.run_plan(mlm_plan, seqs, 0)
        probe.phase("unfrozen")
        T.run_plan(plan, seqs, 0)
        probe.phase("ft")
        E.finetune_classifier(enc_cfg, M.init_mlm_encoder(enc_cfg, 0), spec, items[:6],
                              items[6:], E.FinetuneConfig(batch_size=4, epochs=1), 0)
    finally:
        probe.uninstall()
    counts = {(phase, key): probe.acc[(phase, key)] for phase, key in (
        ("unfrozen", "ops"), ("unfrozen", "tape_nodes"), ("unfrozen", "updates"),
        ("ftdev", "dev_evals"))}
    # each objective's batch, corruption and loss, behind the data.* and train.other_ms figures
    counts.update({(phase, key): probe.acc[(phase, key)] for phase in ("mlm", "unfrozen")
                   for key in ("batch", "tokens", "corrupt", "loss")})
    assert all(v > 0 for v in counts.values()), counts
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
