#!/usr/bin/env python3
"""Build atm_bench from this checkout and run it.

One workload (the form BENCHMARK.json's "command" uses):

    python3 atm_bench/run.py --workload apps-static --seed 1 --seconds 20 --trace 0

prints, as its last stdout line, {"correct", "attempted", "failed",
"metrics"} with every end-to-end metric of BENCHMARK.json (--trace 0) or
every per-layer metric (--trace 1), each checked for its unit. The full
result (host facts, failures, split check) is saved under
.bench_build/atm_bench/results/.

A set (every workload, once per seed, each in its own process), for
atm_bench/ab.py compare:

    python3 atm_bench/run.py --set --seeds 1-10 --out set1.json

The smoke check (test preset, 2 rounds, traced pass too):

    python3 atm_bench/run.py --smoke
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
BUILD = ROOT / ".bench_build" / "atm_bench"
BINARY = BUILD / "atm_bench"
# Seeds for claims: SEED while developing, HOLDOUT_SEED to confirm.
SEED = 1
HOLDOUT_SEED = 9176
# A run measures for --seconds plus set-up; anything far past that is hung.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PKG), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "atm_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_binary(workload, seed, seconds=None, traced=False, extra=(),
               binary=BINARY):
    """One atm_bench process; returns its full result object.

    Without `seconds`, `extra` must give --rounds. A binary other than this
    checkout's build is not stamped with this checkout's git sha.
    """
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), *extra]
    if binary == BINARY:
        cmd += ["--git-sha", git_sha()]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if traced:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--trace-dir", str(traces)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run.py: atm_bench exited {out.returncode}")
    return json.loads(lines[-1])


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def contract_metrics(result, wanted):
    """The metrics BENCHMARK.json names, each checked for presence and unit."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit(f"run.py: metric {m['name']} missing or not in "
                             f"{m['unit']}: {got}")
        if not isinstance(got["value"], (int, float)):
            raise SystemExit(f"run.py: metric {m['name']} is not a number")
        metrics[m["name"]] = got
    return metrics


def save(result, name):
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / name).write_text(json.dumps(result, indent=1) + "\n")


def one_run(args):
    traced = args.trace == 1
    result = run_binary(args.workload, args.seed, args.seconds, traced)
    save(result, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    wanted = spec()["per_layer" if traced else "end_to_end"]
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": contract_metrics(result, wanted)}
    print(json.dumps(line))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(args):
    workloads = [w["name"] for w in spec()["workloads"]]
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            result = run_binary(workload, seed, args.seconds)
            log(f"{workload} seed={seed} correct={result['correct']} "
                f"wall_ms={result['metrics']['wall_ms']['value']:.2f}")
            runs.append(result)
    Path(args.out).write_text(json.dumps({"runs": runs}) + "\n")
    log(f"wrote {len(runs)} runs to {args.out}")


def smoke():
    bench = spec()
    start = time.monotonic()
    ok = True
    for w in bench["workloads"]:
        for traced, wanted in ((False, bench["end_to_end"]),
                               (True, bench["per_layer"])):
            result = run_binary(w["name"], SEED, traced=traced,
                                extra=["--preset", "test", "--rounds", "2",
                                       "--setup-reps", "1"])
            contract_metrics(result, wanted)
            ok = ok and result["correct"]
            log(f"smoke {w['name']} traced={traced} correct={result['correct']}")
    elapsed = time.monotonic() - start
    log(f"smoke {'passed' if ok else 'FAILED'} in {elapsed:.1f} s")
    if not ok:
        raise SystemExit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", action="store_true",
                    help="run every workload once per seed into --out")
    ap.add_argument("--seeds", default=f"{SEED}")
    ap.add_argument("--out", default="atm_bench_set.json")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]

    build()
    if args.smoke:
        smoke()
    elif args.set:
        run_set(args)
    elif args.workload:
        one_run(args)
    else:
        ap.error("give --workload, --set or --smoke")


if __name__ == "__main__":
    main()
