"""Checkpoint store: a manifest, `params.bin` and `optim.bin`, float64 only.

`params.bin` holds each tie group's tensor once under its owner (the smallest
name) and `optim.bin` each AdamW slot's `m` then `v`, raw little-endian in
owner order.  A save is written into `<path>.partial`, then renamed to `<path>`.
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict

import numpy as np

from .model import ModelConfig
from .optim import OptimState
from .params import ParameterStore

FORMAT_VERSION = 3
DTYPE = np.dtype("<f8")


def _write(path, arrays):
    with open(path, "wb") as fh:
        for a in arrays:
            if a.dtype != np.float64:  # a cast would break the bit-exact round trip
                raise ValueError(f"checkpoint tensors must be float64, got {a.dtype}")
            a.astype(DTYPE, copy=False).tofile(fh)


def _read(path, shapes):
    sizes = [int(np.prod(s)) for s in shapes]
    if not os.path.isfile(path) or os.path.getsize(path) != sum(sizes) * DTYPE.itemsize:
        raise ValueError(f"checkpoint file {path} is missing or not the "
                         f"{sum(sizes) * DTYPE.itemsize} bytes its manifest lists")
    with open(path, "rb") as fh:
        return [np.fromfile(fh, DTYPE, count=n).astype(np.float64, copy=False).reshape(s)
                for n, s in zip(sizes, shapes)]


def save(path, cfg, store, provenance=None, opt_state=None):
    path = os.path.normpath(path)
    if os.path.isdir(path) and os.listdir(path) and not os.path.isfile(
            os.path.join(path, "manifest.json")):
        raise FileExistsError(f"refusing to replace {path}: a non-empty dir with no manifest.json")
    items = store.unique_items()
    manifest = {"format_version": FORMAT_VERSION, "model": asdict(cfg),
                "params": [{"name": o, "shape": list(t.data.shape)} for o, t in items],
                "tie_groups": store.tie_groups(), "provenance": provenance or {},
                "trainable": {o: t.requires_grad for o, t in items}}
    tmp = path + ".partial"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    _write(os.path.join(tmp, "params.bin"), (t.data for _, t in items))
    if opt_state is not None:
        owners = sorted(opt_state.slots)
        _write(os.path.join(tmp, "optim.bin"),
               (opt_state.slots[o][k] for o in owners for k in ("m", "v")))
        manifest["optim"] = {o: opt_state.slots[o]["t"] for o in owners}
    with open(os.path.join(tmp, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    shutil.rmtree(path, ignore_errors=True)  # holds a manifest, or nothing
    os.rename(tmp, path)
    return manifest


def load(path):
    """Returns (cfg, store, manifest, opt_state-or-None)."""
    mpath = os.path.join(path, "manifest.json")
    if not os.path.isfile(mpath):
        raise ValueError(f"not a checkpoint: {path} holds no manifest.json")
    with open(mpath, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format: {version} (reads {FORMAT_VERSION})")
    store = ParameterStore()
    shapes = [e["shape"] for e in manifest["params"]]
    for e, arr in zip(manifest["params"], _read(os.path.join(path, "params.bin"), shapes)):
        store.add(e["name"], arr, trainable=manifest["trainable"][e["name"]])
    for group in manifest["tie_groups"]:
        for name in group[1:]:
            store.tie(name, group[0])
    opt_state = None
    if "optim" in manifest:
        owners = sorted(manifest["optim"])
        moments = iter(_read(os.path.join(path, "optim.bin"),
                             [store[o].data.shape for o in owners for _ in "mv"]))
        opt_state = OptimState({o: {"m": next(moments), "v": next(moments),
                                    "t": manifest["optim"][o]} for o in owners})
    return ModelConfig(**manifest["model"]), store, manifest, opt_state
