"""Run the benchmark over many seeds, print every metric, compare two sets.

    python3 perfbench/report.py run OUT [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--trace]
    python3 perfbench/report.py show OUT [BASE]

`run` calls run.py once per workload and seed (seeds first-seed ..
first-seed+runs-1), each for BENCHMARK.json's run_seconds.  It appends
each result to OUT/<workload>.trace<0|1>.jsonl with the run's failure and
known-defect lines, then shows OUT.  `show`
prints, per workload, each metric's median, quartiles and spread (q3 - q1
over the median) with its unit, plus failed_ratio and the failing cases.
Given BASE, it also prints BASE's median and the change, and marks a
metric that got worse by more than its bound in BENCHMARK.json, or whose
spread is wider than the bound (unresolved).  It refuses to compare sets
made with different run lengths or on machines with different nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit(),
            "seconds": SPEC["run_seconds"]}
    (out / "meta.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "1" if args.trace else "0"]
            cmd[0] = sys.executable if cmd[0] in ("python3", "python") else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            record["seed"] = seed
            record["notes"] = [line.strip() for line in proc.stderr.splitlines()
                               if line.strip().startswith(("FAILED", "KNOWN DEFECT"))]
            with open(out / f"{workload}.trace{int(args.trace)}.jsonl", "a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    show(argparse.Namespace(out=args.out, base=None))


def load(directory: Path):
    """{(workload, trace): [records]} from a result directory."""
    runs = {}
    for path in sorted(directory.glob("*.trace*.jsonl")):
        workload, _, mode = path.name[: -len(".jsonl")].rpartition(".")
        runs[(workload, mode)] = [json.loads(line) for line in path.read_text().splitlines() if line]
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def read_meta(directory: Path) -> dict:
    path = directory / "meta.json"
    return json.loads(path.read_text()) if path.exists() else {}


def show(args) -> None:
    out = Path(args.out)
    meta = read_meta(out)
    print(f"results {out}: commit {meta.get('commit')}  nproc {meta.get('nproc')}  "
          f"python {meta.get('python')}  seconds {meta.get('seconds')}")
    base = load(Path(args.base)) if args.base else {}
    if args.base:
        bmeta = read_meta(Path(args.base))
        for key in ("seconds", "nproc"):
            if bmeta.get(key) != meta.get(key):
                sys.exit(f"cannot compare: {key} is {meta.get(key)} in {out} "
                         f"but {bmeta.get(key)} in {args.base}")
        print(f"base {args.base}: commit {bmeta.get('commit')}")
    bounds = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for (workload, mode), records in sorted(load(out).items()):
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        print(f"\n== {workload} ({mode}, {len(records)} runs, seeds "
              f"{min(r['seed'] for r in records)}..{max(r['seed'] for r in records)})  "
              f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
        header = f"  {'metric':40s} {'unit':>9s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}"
        if base:
            header += f" {'base':>12s} {'change':>8s}  verdict"
        print(header)
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            med, q1, q3, spread = stats(values)
            line = (f"  {name:40s} {records[0]['metrics'][name]['unit']:>9s} {med:12.4f} "
                    f"{q1:12.4f} {q3:12.4f} {spread:7.3f}")
            old = base.get((workload, mode))
            if old:
                bvalues = [r["metrics"][name]["value"] for r in old]
                bmed, _, _, bspread = stats(bvalues)
                change = (med - bmed) / bmed if bmed else 0.0
                line += f" {bmed:12.4f} {change:+8.3f}  {verdict(bounds[name], change, spread, bspread, values, bvalues)}"
            print(line)
        notes = sorted({note for r in records for note in r.get("notes", [])})
        for note in notes[:30]:
            print(f"  {note}")


def verdict(metric, change, spread, bspread, values, bvalues) -> str:
    bound = metric.get("bound")
    if bound is None:
        return ""
    lower = metric["better"] == "lower"
    worse = change if lower else -change
    if max(spread, bspread) > bound:
        all_better = (max(values) < min(bvalues)) if lower else (min(values) > max(bvalues))
        return "better (every run)" if all_better else "unresolved (spread > bound)"
    if worse > bound:
        return f"WORSE by more than {bound}"
    return "ok"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("out")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=run)
    p = sub.add_parser("show")
    p.add_argument("out")
    p.add_argument("base", nargs="?")
    p.set_defaults(func=show)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
