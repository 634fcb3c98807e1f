"""Recipe-level benchmark for deskseq.

    python3 perfbench/run.py --workload seq24 --seed 1 --seconds 20 --trace 0

Runs from the root of a deskseq source tree, on the sources under `src/`.
Prints a machine fingerprint, one line per metric, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end figures, measured with no wrappers installed;
with --trace 1 they are the per-layer figures of a traced run.
`--workload all` runs every workload in turn, each in its own process.
Exits 2 without a result when the deskseq sources are missing.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the fingerprint records them
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")  # raw run output, ignored by git


def fingerprint():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    pkg = os.path.join(SRC, "deskseq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": sha, "src_sha256": sources.hexdigest()[:16]}


def run_all(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print(f"== {name}: attempted {results[name]['attempted']}, "
              f"failed {results[name]['failed']}, correct {results[name]['correct']}")
        for line in lines[:-1]:
            print("  " + line)
    print(json.dumps(results, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "deskseq", "__init__.py")):
        print(f"perfbench: no deskseq sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import journey
    if args.workload not in journey.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(journey.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = os.path.join(OUT, "work-" + tag)
    os.makedirs(work)
    try:
        result, notes = journey.run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine = fingerprint()
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "machine": machine, "notes": notes, "result": result}, fh, indent=1)
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
