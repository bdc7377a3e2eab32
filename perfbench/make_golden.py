#!/usr/bin/env python3
"""Regenerates perfbench/golden/ from the current sources.

Run from the repository root:

    python3 perfbench/make_golden.py --seeds 0-31

Writes the byte-exact stdout of the four eval_serial binaries for the
default seed (42) and, for 42 and every seed in --seeds, the eval_serial
and idle_bus digests that run.py checks. Only re-baseline on purpose: a
change that moves any of these numbers shows up as a diff of this folder.
"""
import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def eval_outputs(seed, tmp):
    texts = []
    for name in run.EVAL_BINARIES:
        text, code, _, _ = run.run_child(
            [run.bin_path(name), "--jobs=1", f"--seed={seed}"], tmp)
        if code != 0:
            raise RuntimeError(f"{name} --seed={seed} exited {code}")
        texts.append(text)
    return texts


def idle_bus_digest(seed, tmp):
    p = run.subprocess.run(
        [run.bin_path("perfbench_harness"), "idle_bus", f"--seed={seed}",
         "--seconds=0", f"--tmp={tmp}"],
        stdout=run.subprocess.PIPE, text=True, check=True)
    for line in p.stdout.splitlines():
        if line.startswith("idle_bus digest"):
            return line.split()[-1]
    raise RuntimeError(f"no idle_bus digest for seed {seed}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-31"))
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = ap.parse_args()
    if not run.sources_present():
        sys.exit("run from the repository root")
    run.build()
    tmp = os.path.join(run.BUILD, "golden-tmp")
    os.makedirs(tmp, exist_ok=True)

    texts = eval_outputs(run.GOLDEN_SEED, tmp)
    for name, text in zip(run.EVAL_BINARIES, texts):
        with open(os.path.join(run.GOLDEN, name + ".txt"), "wb") as f:
            f.write(text)

    seeds = sorted(set(args.seeds) | {run.GOLDEN_SEED})
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        evals = list(pool.map(lambda s: run.eval_digest(eval_outputs(s, tmp)),
                              seeds))
        idles = list(pool.map(lambda s: idle_bus_digest(s, tmp), seeds))
    digests = {
        "eval_serial": {str(s): d for s, d in zip(seeds, evals)},
        "idle_bus": {str(s): d for s, d in zip(seeds, idles)},
    }
    with open(os.path.join(run.GOLDEN, "digests.json"), "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote goldens for seed {run.GOLDEN_SEED} and digests for "
          f"{len(seeds)} seeds")


if __name__ == "__main__":
    main()
