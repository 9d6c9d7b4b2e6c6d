#!/usr/bin/env python3
"""The khss repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  One run:

1. builds perfbench/ (the khss library through the repository's own CMake
   build, plus the khss_perfbench binary) in .bench_build/, incrementally;
2. writes the workload's dataset-twin CSV files into .bench_build/inputs/:
   a fixed training set (written once) and a test set drawn by --seed
   (reused for the same seed), so generation stays outside every timing;
3. runs khss_perfbench in one fresh process, pinned to one OpenMP thread
   (OMP_NUM_THREADS also sets the team size of the daemon's batcher
   thread) and with no KHSS_GEMM_* variable set (no autotune, no GEMM
   config file);
4. prints the environment, every metric with its unit, the operation counts
   and, as the last line, one JSON object with the keys correct, attempted,
   failed and metrics.

--trace 0 reports BENCHMARK.json's end-to-end metrics from the untraced user
cycle.  Its timings (setup_s and every *_norm_s metric) are CPU seconds at
a reference speed: each operation runs between two runs of a fixed
reference loop of the benchmark's own, and its CPU time is scaled by how
much slower than nominal the reference ran beside it, so that the load
other guests put on a shared host cancels out (cycle.cpp, common.hpp).  The
measured CPU and wall-clock medians are printed next to them.

--trace 1 reports BENCHMARK.json's per-layer metrics from the traced
layer-by-layer run, which also writes its spans to
.bench_build/run/trace-<workload>.json and .chrome.json (Chrome Trace Event
format; opens offline in Perfetto).  The exit code is 0 only when every
output check passed.  Without the library sources next to perfbench/ the run
exits 2 and prints no result.

--self-test runs every workload at toy sizes, traced and untraced, and then
with a deliberately wrong accuracy floor and a corrupted expected score, and
checks that the first two pass and the last two fail.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build"
BINARY = WORK / "cmake" / "khss_perfbench"
THREADS = "1"  # common.hpp's kThreads
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(2, f"cannot read BENCHMARK.json: {e}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(2, f"no khss sources (CMakeLists.txt, src/) under {ROOT}")
    WORK.mkdir(exist_ok=True)
    build_dir = WORK / "cmake"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "khss_perfbench", "-j", jobs])
    with open(WORK / "build.log", "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = (WORK / "build.log").read_text()[-3000:]
                fail(3, f"build failed:\n{tail}")


def commit_id():
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files + [ROOT / "CMakeLists.txt"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("KHSS_GEMM_")}
    env["OMP_NUM_THREADS"] = THREADS
    return env


def inputs_for(workload, seed, toy):
    """Directory of the workload's CSV inputs, generated for `seed` unless
    they are already there."""
    inputs = WORK / "inputs" / f"{workload}{'-toy' if toy else ''}"
    cmd = [str(BINARY), "gen", "--workload", workload, "--seed", str(seed),
           "--inputs", str(inputs)] + (["--toy"] if toy else [])
    if subprocess.run(cmd, cwd=ROOT, env=child_env()).returncode != 0:
        fail(4, f"input generation failed for {workload}")
    return inputs


def run_once(spec, workload, seed, seconds, trace, toy=False, extra=()):
    """One benchmark process.  Returns (exit code, result line or None)."""
    run_dir = WORK / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    result_path = run_dir / "result.json"
    if result_path.exists():
        result_path.unlink()
    inputs = inputs_for(workload, seed, toy)
    # Paths relative to the root keep the daemon's socket paths short.
    cmd = [str(BINARY), "run", "--workload", workload, "--seed", str(seed),
           "--inputs", str(inputs),
           "--work", os.path.relpath(run_dir, ROOT),
           "--seconds", str(seconds), "--trace", str(trace),
           "--result", os.path.relpath(result_path, ROOT),
           "--commit", commit_id()] + (["--toy"] if toy else []) + list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    sys.stdout.write(proc.stdout)
    if not result_path.is_file():
        print(f"perfbench: {workload} wrote no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1, None
    result = json.loads(result_path.read_text())

    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    problems = []
    if result["correct"] and set(got) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {entry['unit']} != {m['unit']}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value} is not a number")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print("env: " + json.dumps(result["env"], separators=(",", ":")))
    correct = result["correct"] and not problems and proc.returncode == 0
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: got[m["name"]] for m in wanted
                    if m["name"] in got},
    }
    return (0 if correct else 1), line


def self_test(spec):
    """Toy-size runs: normal runs must pass, deliberate faults must fail."""
    cases = []
    for w in spec["workloads"]:
        name = w["name"]
        cases += [
            (name, 0, (), True, "untraced cycle"),
            (name, 1, (), True, "traced layer-by-layer run"),
            (name, 0, ("--accuracy-floor", "1.01"), False,
             "accuracy floor above any reachable accuracy"),
            (name, 0, ("--corrupt-expected",), False,
             "one expected serving score off by one bit"),
        ]
    bad = 0
    for name, trace, extra, should_pass, what in cases:
        code, line = run_once(spec, name, 1, 2, trace, toy=True, extra=extra)
        passed = code == 0 and line is not None and line["correct"]
        ok = passed == should_pass
        bad += not ok
        print(f"self-test {'ok  ' if ok else 'FAIL'} {name} --trace {trace}: "
              f"{what} -> {'passes' if passed else 'fails'}", flush=True)
    print(f"self-test: {len(cases) - bad} of {len(cases)} as expected")
    return 1 if bad else 0


def main():
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.self_test:
        return self_test(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(2, f"unknown workload {args.workload!r}")
    code, line = run_once(spec, args.workload, args.seed,
                          args.seconds or spec["run_seconds"], args.trace)
    if line is not None:
        print(json.dumps(line, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
