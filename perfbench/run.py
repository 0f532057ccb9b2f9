#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark binary, runs one workload
once, checks its answers and metric declarations, and prints the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json for `--trace 0`, its per-layer
metrics for `--trace 1`. Everything else (the binary's full result, with
diagnostics, checks and provenance) goes to `perfbench/out/`, where every
run is also appended to `runs.jsonl` and summarized (min/median/max per
metric over the runs of the same source tree) in `summary.json`.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
# Whole-run budget: the binary is killed if it has not finished by then.
RUN_LIMIT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PIN_RE = re.compile(r"size digest at seed (\d+): ([0-9a-f]{16})")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(spec, trace):
    """Name -> (unit, better) of the metrics a run with `trace` prints."""
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: (m["unit"], m["better"]) for m in table}


def validate_metrics(spec, trace, metrics):
    """Problems with the emitted `metrics` (name -> {value, unit, better}):
    malformed or undeclared names, unit or direction unlike BENCHMARK.json,
    non-numeric values, or declared metrics that are missing."""
    problems = []
    everything = {**declared(spec, False), **declared(spec, True)}
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"malformed metric name {name!r}")
        elif name not in everything:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif (m.get("unit"), m.get("better")) != everything[name]:
            problems.append(
                f"metric {name}: emitted unit/direction {m.get('unit')}/{m.get('better')}, "
                f"declared {everything[name][0]}/{everything[name][1]}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
            problems.append(f"metric {name}: value {value!r} is not a number")
    for name in declared(spec, trace):
        if name not in metrics:
            problems.append(f"declared metric {name} was not emitted")
    return problems


def pinned_digest(spec, workload):
    """(seed, digest) pinned in the workload's `why`, if any."""
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = PIN_RE.search(w["why"])
            return (int(m.group(1)), m.group(2)) if m else None
    return None


def summarize(runs):
    """Per metric: min/median/max and count over `runs` (lists of
    {name: value} dicts)."""
    values = {}
    for metrics in runs:
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    return {
        name: {"n": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
        for name, v in sorted(values.items())
    }


def source_digest(root):
    """SHA-256 over the sources the benchmark builds from, so runs of the
    same code can be grouped even where there is no git metadata."""
    h = hashlib.sha256()
    files = [os.path.join(root, "Cargo.lock")]
    for top in ("crates", "perfbench/src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(root):
    """Builds the binary (a no-op when up to date); returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    result = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                            env={**os.environ, "CARGO_TARGET_DIR": target})
    if result.returncode != 0:
        raise RuntimeError(f"cargo build failed with exit code {result.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_binary(binary, args, deadline):
    """Runs the binary, waits for it (killing it at `deadline`), removes
    any scratch store it left, and returns its last stdout line."""
    proc = subprocess.Popen([binary, *args], stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("the benchmark binary ran out of time and was killed")
    finally:
        for leftover in glob.glob(os.path.join(OUT_DIR, f"scratch-{proc.pid}-*")):
            shutil.rmtree(leftover, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the benchmark binary exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("the benchmark binary printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()

    spec = load_spec(root)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise RuntimeError(f"unknown workload {args.workload}")
    binary = build(root)
    os.makedirs(OUT_DIR, exist_ok=True)
    full = run_binary(binary, [args.workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR],
                      deadline)

    problems = validate_metrics(spec, args.trace, full["metrics"])
    if problems:
        raise RuntimeError("; ".join(problems))
    correct = bool(full["correct"])
    pin = pinned_digest(spec, args.workload)
    if pin and pin[0] == args.seed and pin[1] != full["digest"]:
        log(f"size digest {full['digest']} differs from the pinned {pin[1]}")
        correct = False
    for check in full["checks"]:
        if not check["ok"]:
            log(f"check failed: {check['name']}: {check['detail']}")

    wanted = declared(spec, args.trace)
    metrics = {name: {"value": full["metrics"][name]["value"], "unit": unit}
               for name, (unit, _) in wanted.items()}
    full["provenance"].update(commit=commit(root), source_digest=source_digest(root))
    record = {"time": time.time(), "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "correct": correct, "digest": full["digest"],
              "provenance": full["provenance"],
              "metrics": {n: m["value"] for n, m in full["metrics"].items()}}
    with open(os.path.join(OUT_DIR, f"last-{args.workload}-{args.trace}.json"), "w") as f:
        json.dump(full, f, indent=1)
    history = os.path.join(OUT_DIR, "runs.jsonl")
    with open(history, "a") as f:
        f.write(json.dumps(record) + "\n")
    same = []
    with open(history) as f:
        for line in f:
            r = json.loads(line)
            if (r["workload"], r["trace"], r["provenance"].get("source_digest")) == \
                    (args.workload, args.trace, full["provenance"]["source_digest"]):
                same.append({n: r["metrics"][n] for n in wanted if n in r["metrics"]})
    summary = summarize(same)
    with open(os.path.join(OUT_DIR, f"summary-{args.workload}-{args.trace}.json"), "w") as f:
        json.dump({"provenance": full["provenance"], "metrics": summary}, f, indent=1)
    log(f"{args.workload} seed {args.seed}: digest {full['digest']}, "
        f"steal {full['metrics']['host.steal_share']['value']:.3f}, {len(same)} runs of this source so far")

    print(json.dumps({"correct": correct, "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
