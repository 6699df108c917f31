#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of the flo stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the library sources
under src/ it links) into .bench_build/ with CMake, runs one workload from
the seed with every FLO_* variable removed from its environment, checks its
outputs, and prints a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. Workloads, metrics and the checks are described in
perfbench/design.json.

Maintenance: --record-golden SEED[,SEED...] runs the untraced workload for
one second (at least three rounds, which must agree) per seed and stores
the first round's output digests in perfbench/golden.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
BINARY = BUILD / "flo_perfbench"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("paper_grid", "write_mix", "tenant_qos", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def scrubbed_env():
    """The caller's environment minus every FLO_* knob and allocator
    tunable, so nothing the shell sets can change what is measured.

    glibc's mmap threshold is pinned at 4 MiB: left dynamic, it rises after
    the first large free, and whether later buffers land in a worker's arena
    (kept resident) or in their own mapping (returned on free) then depends
    on which worker freed first, which moves write_mix's peak resident set
    by up to a quarter between identical runs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("FLO_", "MALLOC_")) and k != "GLIBC_TUNABLES"}
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_threshold=4194304"
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text(errors="replace").splitlines():
            shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(parents=True, exist_ok=True)
    env = scrubbed_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            if result.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)}")
    if not BINARY.exists():
        fail("build produced no flo_perfbench binary")


def run_binary(workload, seed, seconds, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=scrubbed_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"flo_perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def golden_problems(report):
    """Compares the round's output digests with the pinned ones, naming the
    first differing cell, simulation or serve key."""
    pinned = load_golden().get(report["workload"], {})
    digests = pinned.get("seeds", {}).get(str(report["seed"]))
    if digests is None:
        return [], "no pinned digests for this seed"
    labels = pinned["labels"]
    items = report["outputs"]
    for label, digest in zip(labels, digests.split()):
        if items.get(label) != digest:
            return [f"'{label}' differs from the digest pinned for seed "
                    f"{report['seed']}"], "pinned digests differ"
    extra = sorted(set(items) - set(labels))
    if extra:
        return [f"'{extra[0]}' has no pinned digest"], "pinned digests differ"
    return [], f"all {len(labels)} output digests match the pinned ones"


def record_golden(workload, seeds):
    golden = load_golden()
    entry = golden.setdefault(workload, {"labels": [], "seeds": {}})
    for seed in seeds:
        report = run_binary(workload, seed, 1, 0)
        if report["problems"]:
            fail(f"seed {seed}: {report['problems'][0]}")
        labels = sorted(report["outputs"])
        if entry["labels"] and entry["labels"] != labels:
            fail(f"seed {seed}: output labels differ from the pinned ones")
        entry["labels"] = labels
        entry["seeds"][str(seed)] = " ".join(report["outputs"][l] for l in labels)
        print(f"{workload} seed {seed}: recorded {len(labels)} digests")
    golden[workload]["seeds"] = dict(
        sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", metavar="SEEDS")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    if args.record_golden:
        record_golden(args.workload, [int(s) for s in args.record_golden.split(",")])
        return 0

    report = run_binary(args.workload, args.seed, args.seconds, args.trace)
    problems = list(report["problems"])
    check, verdict = golden_problems(report)
    problems += check

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] not measured")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(f"workload {report['workload']}  seed {report['seed']}  trace "
          f"{report['trace']}  untraced rounds {report['rounds']}  traced "
          f"rounds {report['traced_rounds']}")
    print(f"inputs: {report['inputs']}")
    print("untraced round walls (s): " +
          " ".join(f"{w:.3f}" for w in report["round_walls"]))
    for name, m in measured.items():
        print(f"  {name:<28} {m['value']:>22.6f}  {m['unit']}")
    fails = report["failed"]
    print(f"  {'failed / attempted':<28} {fails:>10} / {report['attempted']}")
    print(f"outputs: {verdict}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": fails, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
