#!/usr/bin/env python3
"""End-to-end benchmark of bbsched: paper evaluation, idle-bus control, live
manager daemon.

Run from the repository root:

    python3 perfbench/run.py --workload eval_serial --seed 42 --seconds 20 --trace 0

Builds the repository and the harness into .bench_build/ (first run only;
later runs are incremental no-ops), measures the workload for about
--seconds, checks the outputs, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
GOLDEN = os.path.join(HERE, "golden")
EVAL_BINARIES = ["fig1a_bus_transactions", "fig1b_slowdown", "fig2_sweep",
                 "ext_qos"]
GOLDEN_SEED = 42  # the binaries' default seed; byte-exact goldens exist
SETUP_REPS = 15  # set-ups per run; setup_s is their median
NON_FINITE = re.compile(rb"\b(nan|inf)\b", re.IGNORECASE)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def sources_present():
    return (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")))


def build():
    """Configures once, then builds only what the benchmark runs."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler scratch files inside the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench_harness", *EVAL_BINARIES],
                   check=True, stdout=sys.stderr, env=env)


def bin_path(name):
    if name == "perfbench_harness":
        return os.path.join(BUILD, name)
    return os.path.join(BUILD, "bbsched", "bench", name)


def vm_hwm_mb(pid):
    """Peak RSS of a live process's address space (VmHWM), or 0."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_child(argv, cwd):
    """Runs argv to completion; returns (stdout, exit code, wall s, peak RSS
    MB). Peak RSS is VmHWM sampled every 20 ms while it runs: the child's
    ru_maxrss would report this Python process's size, which a spawned
    child inherits until exec."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, cwd=cwd)
    peak = [0.0]
    done = threading.Event()

    def sample():
        while not done.wait(0.02):
            peak[0] = max(peak[0], vm_hwm_mb(p.pid))

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        peak[0] = max(peak[0], vm_hwm_mb(p.pid))
    finally:
        done.set()
        sampler.join()
    p.wait()
    return out, p.returncode, time.perf_counter() - t0, peak[0]


def load_digests():
    with open(os.path.join(GOLDEN, "digests.json")) as f:
        return json.load(f)


def eval_digest(texts):
    """Digest of the four binaries' stdout, in EVAL_BINARIES order."""
    sha = hashlib.sha256()
    for name, text in zip(EVAL_BINARIES, texts):
        sha.update(name.encode() + b"\0" + text + b"\0")
    return sha.hexdigest()[:16]


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}

    def fail(self, why):
        self.failed += 1
        log("FAIL:", why)


def eval_serial(seed, seconds, tmp):
    """fig1a, fig1b, fig2_sweep and ext_qos back to back with --jobs=1."""
    out = Outcome()
    expected_digest = load_digests()["eval_serial"].get(str(seed))

    # Set-up: load the goldens and warm-start every binary on a tiny input
    # (pages it in and proves it runs before anything is timed). Repeated;
    # the median is reported.
    setups = []
    goldens = {}
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        for name in EVAL_BINARIES:
            if seed == GOLDEN_SEED:
                with open(os.path.join(GOLDEN, name + ".txt"), "rb") as f:
                    goldens[name] = f.read()
            argv = [bin_path(name), "--scale=0.01", "--app=SP", "--jobs=1"]
            if name == "fig2_sweep":
                argv.append("--seeds=1")
            text, code, _, _ = run_child(argv, tmp)
            out.attempted += 1
            if code != 0 or not text:
                out.fail(f"{name} warm-up exited {code}")
        setups.append(time.perf_counter() - t0)

    walls, rss = [], []
    first_digest = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall = peak = 0.0
        texts = []
        steps = []
        for name in EVAL_BINARIES:
            argv = [bin_path(name), "--jobs=1", f"--seed={seed}"]
            text, code, w, m = run_child(argv, tmp)
            out.attempted += 1
            wall += w
            peak = max(peak, m)
            steps.append(f"{name} {w:.3f}s")
            texts.append(text)
            if code != 0:
                out.fail(f"{name} exited {code}")
            elif seed == GOLDEN_SEED and text != goldens[name]:
                out.fail(f"{name} stdout differs from golden/{name}.txt")
            elif not text.strip() or NON_FINITE.search(text):
                out.fail(f"{name} printed no table or a non-finite value")
        digest = eval_digest(texts)
        if first_digest is None:
            first_digest = digest
            print(f"eval_serial digest seed={seed} {digest}")
            if expected_digest and digest != expected_digest:
                out.fail(f"eval_serial digest {digest} != golden {expected_digest}")
        elif digest != first_digest:
            out.fail("eval_serial output is not deterministic")
        print(f"eval_serial pass: {wall:.3f}s wall ({', '.join(steps)})")
        walls.append(wall)
        rss.append(peak)
    out.metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    return out


def harness(subcommand, seed, seconds, trace, tmp):
    out = Outcome()
    # Relative, so the manager's socket path stays far below the 108-byte
    # AF_UNIX limit however deep the checkout is.
    argv = [bin_path("perfbench_harness"), subcommand, f"--seed={seed}",
            f"--seconds={seconds}", f"--tmp={os.path.relpath(tmp, ROOT)}"]
    if trace:
        argv.append("--trace")
    if subcommand == "idle_bus":
        expected = load_digests()["idle_bus"].get(str(seed))
        if expected:
            argv.append(f"--expect-digest={expected}")
    p = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    result = None
    for line in p.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if p.returncode != 0 or result is None:
        out.attempted = 1
        out.fail(f"harness {subcommand} exited {p.returncode}")
        return out
    out.attempted = result["attempted"]
    out.failed = result["failed"]
    for e in result["errors"]:
        log("FAIL:", e)
    out.metrics = result["metrics"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["eval_serial", "idle_bus", "managerd"])
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not sources_present():
        log("perfbench: run from the root of a bbsched checkout "
            "(CMakeLists.txt and src/ not found)")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed:", e)
        return 1

    tmp = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.workload == "eval_serial" and not args.trace:
            out = eval_serial(args.seed, args.seconds, tmp)
        else:
            sub = "eval_layers" if args.workload == "eval_serial" else args.workload
            out = harness(sub, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {}
    for m in wanted:
        value = out.metrics.get(m["name"])
        if value is None:
            out.fail(f"metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
