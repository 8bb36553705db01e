"""Run the benchmark in sets of seeds and compare the sets, metric by metric.

    python3 perfbench/steady.py                       # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --sets 1 --runs 1     # every workload once
    python3 perfbench/steady.py --workloads captioning --sets 1 --runs 5
    python3 perfbench/steady.py --sets 1 --runs 3 --trace 1   # per-layer medians

Every run is the command from BENCHMARK.json in a fresh process, one at a
time, from the repository root. Set k uses seeds 100*k + 1 .. 100*k + runs.
For each workload and metric the report gives each set's median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. A set is steady
when every spread but that of ``setup_s`` is within the metric's bound;
two sets agree when the second median is not worse than the first by more
than the bound and the share of failed operations is the same. The exit
status is 0 when every run was correct and every test passed. Raw results
go to ``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
RUN_TIMEOUT_S = 900


def run_once(bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return {
        "workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode, "wall_s": wall,
        "result": result, "stdout": lines[:-1], "stderr": proc.stderr[-2000:],
    }


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs = []
    for k in range(1, args.sets + 1):
        for i in range(1, args.runs + 1):
            for workload in names:
                run = run_once(bench, workload, 100 * k + i, seconds, args.trace)
                run["set"] = k
                runs.append(run)
                res = run["result"]
                status = "no result" if res is None else ("correct" if res["correct"] else "INCORRECT")
                print(f"set {k} seed {run['seed']:4d} {workload:12s} exit {run['exit']} {status} "
                      f"wall {run['wall_s']:.1f}s", flush=True)
                if res is None or not res["correct"]:
                    print("\n".join(run["stdout"][-20:] + [run["stderr"]]), file=sys.stderr)

    ok = all(r["result"] is not None and r["result"]["correct"] for r in runs)
    report = []
    for workload in names:
        mine = [r for r in runs if r["workload"] == workload and r["result"] is not None]
        fail_shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in mine})
        print(f"\n{workload}: failed share {fail_shares}")
        if len(fail_shares) > 1:
            ok = False
        for metric in metrics:
            name = metric["name"]
            sets = []
            for k in range(1, args.sets + 1):
                values = [r["result"]["metrics"][name]["value"] for r in mine if r["set"] == k]
                sets.append(summarise(values) if len(values) >= 2 else {"median": statistics.median(values)})
            row = {"workload": workload, "metric": name, "unit": metric["unit"], "sets": sets}
            line = f"  {name:28s}"
            for s in sets:
                line += f" | med {s['median']:12.6g}"
                if "spread" in s:
                    line += f" q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:7.2%}"
            bound = metric.get("bound")
            if bound is not None and "spread" in sets[0]:
                steady = name == "setup_s" or all(s["spread"] <= bound for s in sets)
                row["steady"] = steady
                line += f" | bound {bound:.0%} {'steady' if steady else 'UNSTEADY'}"
                ok &= steady
                if len(sets) > 1:
                    worse = worse_by(sets[0]["median"], sets[1]["median"], metric["better"])
                    row["second_worse_by"] = worse
                    row["agree"] = worse <= bound
                    line += f" second worse by {worse:+.2%} {'agree' if row['agree'] else 'DISAGREE'}"
                    ok &= row["agree"]
            report.append(row)
            print(line)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"runs": runs, "report": report}, indent=1))
    print(f"\nraw results: {path.relative_to(ROOT)}; {'all steady and correct' if ok else 'NOT all steady and correct'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
