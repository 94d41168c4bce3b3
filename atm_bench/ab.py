#!/usr/bin/env python3
"""Interleaved A/B of two atm_bench binaries, and the bound check.

    # Ten or more pairs of every workload, each run for BENCHMARK.json's
    # run_seconds; the side that runs first alternates.
    python3 atm_bench/ab.py run --a parent/atm_bench --b change/atm_bench \\
        [--pairs 10] [--seed 1] [--out prefix]

    # Two result sets of the same build (atm_bench/run.py --set) against
    # BENCHMARK.json's bounds.
    python3 atm_bench/ab.py compare set1.json set2.json

    python3 atm_bench/ab.py --self-test

Rules, one row per (workload, end-to-end metric):
  regression  B's failure rate (failed / attempted over the workload's runs)
              is above A's, whatever the metrics read; or B's median is
              worse than A's by more than the metric's bound
  gain        B wins at least 9 of 10 pairs (ties count for neither) and the
              medians differ by more than A's interquartile range
  unresolved  either side's spread (IQR / median) is wider than the bound,
              unless every B run reads better than every A run
  ok          otherwise
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

from run import run_binary, spec


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(x, y, direction):
    """True when x reads better than y."""
    return x < y if direction == "lower" else x > y


def verdict(a, b, direction, bound, paired=False):
    """Classify B against A (lists of one metric's values)."""
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    sign = 1.0 if direction == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max((a3 - a1) / abs(a_med) if a_med else 0.0,
                 (b3 - b1) / abs(b_med) if b_med else 0.0)
    all_better = all(better(x, y, direction) for x in b for y in a)
    row = {"a_median": a_med, "a_q1": a1, "a_q3": a3,
           "b_median": b_med, "b_q1": b1, "b_q3": b3,
           "worse_by": worse_by, "spread": spread, "bound": bound}
    if paired:
        wins = sum(better(y, x, direction) for x, y in zip(a, b))
        row["wins"] = f"{wins}/{len(a)}"
        if (wins >= 0.9 * len(a) and better(b_med, a_med, direction)
                and abs(b_med - a_med) > a3 - a1):
            row["verdict"] = "gain"
            return row
    if worse_by > bound:
        row["verdict"] = "regression"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "ok"
    return row


def values(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def failures(runs, workload):
    """(failed, attempted) summed over the workload's runs."""
    mine = [r for r in runs if r["workload"] == workload]
    return sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)


def table(runs_a, runs_b, bench, paired):
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        fail_a, tried_a = failures(runs_a, workload)
        fail_b, tried_b = failures(runs_b, workload)
        # More broken runs on B is a regression, whatever the metrics read.
        more_failures = fail_b * max(tried_a, 1) > fail_a * max(tried_b, 1)
        for m in bench["end_to_end"]:
            a = values(runs_a, workload, m["name"])
            b = values(runs_b, workload, m["name"])
            if not a or not b:
                continue
            row = verdict(a, b, m["better"], m["bound"], paired)
            row.update(workload=workload, metric=m["name"], unit=m["unit"],
                       failed=f"{fail_a}/{fail_b}")
            if more_failures:
                row["verdict"] = "regression"
            rows.append(row)
    return rows


def print_table(rows):
    head = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
            "B worse by", "spread", "bound", "wins", "failed A/B", "verdict")
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for r in rows:
        print(f"| {r['workload']} | {r['metric']} ({r['unit']}) "
              f"| {r['a_median']:.4g} [{r['a_q1']:.4g}, {r['a_q3']:.4g}] "
              f"| {r['b_median']:.4g} [{r['b_q1']:.4g}, {r['b_q3']:.4g}] "
              f"| {100 * r['worse_by']:+.2f}% | {100 * r['spread']:.2f}% "
              f"| {100 * r['bound']:.2f}% | {r.get('wins', '-')} "
              f"| {r['failed']} | {r['verdict']} |")


def cmd_run(args):
    bench = spec()
    sides = {"a": [], "b": []}
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for workload in (w["name"] for w in bench["workloads"]):
            for side in order:
                binary = Path(args.a if side == "a" else args.b).resolve()
                sides[side].append(run_binary(workload, args.seed + i,
                                              bench["run_seconds"],
                                              binary=binary))
        print(f"ab.py: pair {i + 1}/{args.pairs} done", file=sys.stderr)
    if args.out:
        for side, runs in sides.items():
            Path(f"{args.out}.{side}.json").write_text(json.dumps({"runs": runs}))
    rows = table(sides["a"], sides["b"], bench, paired=True)
    print_table(rows)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


def cmd_compare(args):
    runs = [json.loads(Path(p).read_text())["runs"] for p in (args.a, args.b)]
    rows = table(runs[0], runs[1], spec(), paired=False)
    print_table(rows)
    return 0 if rows and all(r["verdict"] == "ok" for r in rows) else 1


def self_test():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert verdict(base, base, "lower", 0.05, paired=True)["verdict"] == "ok"
    faster = [x * 0.9 for x in base]
    assert verdict(base, faster, "lower", 0.05, paired=True)["verdict"] == "gain"
    # A gain in "higher is better" terms is the mirror image.
    assert verdict(faster, base, "higher", 0.05, paired=True)["verdict"] == "gain"
    # 8 of 10 wins is not a gain, and a 2% move is within a 5% bound.
    mixed = [x * 0.98 for x in base[:8]] + [x * 1.01 for x in base[8:]]
    row = verdict(base, mixed, "lower", 0.05, paired=True)
    assert row["wins"] == "8/10" and row["verdict"] == "ok", row
    slower = [x * 1.2 for x in base]
    assert verdict(base, slower, "lower", 0.05)["verdict"] == "regression"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, noisy, "lower", 0.05)["verdict"] == "unresolved"
    # A wide spread resolves when every B run beats every A run.
    assert verdict(noisy, [x / 3 for x in noisy], "lower", 0.05)["verdict"] == "ok"

    bench = {"workloads": [{"name": "w"}, {"name": "v"}],
             "end_to_end": [{"name": "wall_ms", "unit": "ms", "better": "lower",
                             "bound": 0.05}]}

    def runs(workload, walls, failed=0):
        return [{"workload": workload, "attempted": 10, "failed": failed,
                 "metrics": {"wall_ms": {"value": v, "unit": "ms"}}}
                for v in walls]

    # compare: the same runs twice agree on every row.
    same = runs("w", base) + runs("v", base)
    rows = table(same, same, bench, paired=False)
    assert [r["verdict"] for r in rows] == ["ok", "ok"], rows
    # A faster B whose runs break their contract is a regression on that
    # workload only, in run and in compare alike.
    broken = runs("w", faster, failed=1) + runs("v", faster)
    for paired in (True, False):
        verdicts = {r["workload"]: r["verdict"]
                    for r in table(same, broken, bench, paired)}
        assert verdicts["w"] == "regression", verdicts
        assert verdicts["v"] == ("gain" if paired else "ok"), verdicts
    # Fewer failures on B than on A is no regression.
    rows = table(broken, runs("w", faster) + runs("v", faster), bench, paired=True)
    assert all(r["verdict"] == "ok" for r in rows), rows
    print("ab.py: self-test passed")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="interleaved A/B of two binaries")
    run.add_argument("--a", required=True, help="parent atm_bench binary")
    run.add_argument("--b", required=True, help="changed atm_bench binary")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1,
                     help="pair i runs seed + i (develop at 1, confirm at 9176)")
    run.add_argument("--out", help="save both sides as OUT.a.json / OUT.b.json")
    cmp_ = sub.add_parser("compare", help="two result sets against the bounds")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "run" and args.pairs < 10:
        ap.error("the A/B protocol needs at least 10 pairs")
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
