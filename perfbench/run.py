"""Benchmark of the seifert-actions CLI and library.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

--seconds defaults to run_seconds in BENCHMARK.json.

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads (see BENCHMARK.json for why each was chosen):

  cli-verbs        the ten non-action verbs, one process per call
  kernels          library tasks in process: moves, obstruction, filling, torus
  actions-valid    the five action verbs on valid group and action files
  actions-invalid  the same files with one entry perturbed, plus malformed files

Load is one client in a closed loop: each operation starts when the last
one has ended.  Every output is checked against `model`.  With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a separate traced run (see spans.py).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ["cli-verbs", "kernels", "actions-valid", "actions-invalid"]
SETUP_REPEATS = 5
CLI_CYCLES = 20
ACTION_CYCLES = 30


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# --- set-up -------------------------------------------------------------------


class Prepared:
    """Operations in whole cycles of `cycle`, plus known-defect inputs."""

    def __init__(self, ops, cycle, defects=()):
        self.ops = ops
        self.cycle = cycle
        self.defects = list(defects)


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Import the package and build every input and expected answer."""
    import seifert_actions.cli  # noqa: F401  (import time is part of set-up)
    import gen

    rng = random.Random(seed)
    if workload == "cli-verbs":
        cells = gen.grid_cells()
        cycles = [gen.cli_cycle(rng, cells) for _ in range(CLI_CYCLES)]
        return Prepared(sum(cycles, []), len(cycles[0]), gen.cli_defects(rng, cells))
    if workload == "kernels":
        cells = gen.grid_cells()
        blocks = gen.kernel_blocks(rng, cells)
        # One task of each kind, so lazy set-up happens here.  They come from
        # a fixed seed, so the warm-up costs the same for every seed.
        warm = random.Random(0)
        for op in (gen.moves_op(warm), gen.obstruction_op(warm, cells), gen.filling_op(warm),
                   gen.filling_op(warm, (4, 6)), gen.torus_op(warm)):
            if not op.check(op.run()):
                fail(f"warm-up task {op.kind} gave a wrong answer")
        return Prepared(sum(blocks, []), len(blocks[0]))
    perturbed = workload == "actions-invalid"
    variants = 2
    by_shape: dict[str, list] = {}
    for fx, report in gen.write_fixtures(rng, workdir, variants, perturbed):
        by_shape.setdefault(fx.shape, []).append((fx, report))
    if perturbed:
        (base, _), = gen.write_fixtures(rng, workdir, 1, False, shapes=["dih6-n24"])
        malformed = gen.malformed_files(rng, base, workdir)
    ops = []
    for c in range(ACTION_CYCLES):
        cycle = []
        # slot k always uses variant k % 2: on perturbed runs, variant 0
        # changes an angle and variant 1 a permutation
        for k, (shape, valid_verb, bad_verb) in enumerate(gen.ACTION_CYCLE):
            fx, report = by_shape[shape][k % variants]
            cycle.append(gen.action_op(rng, fx, bad_verb if perturbed else valid_verb, report))
        if perturbed:
            path, needle, label = malformed[c % len(malformed)]
            verb = gen.ACTION_VERBS[c % len(gen.ACTION_VERBS)]
            cycle.append(gen.Op(f"malformed/{label}", gen.action_argv(verb, path, 0, 0), 2, "",
                                needle=needle, verb=verb))
        else:
            shape, verb = gen.LIGHT_EXTRA
            cycle.append(gen.action_op(rng, by_shape[shape][1][0], verb))
        rng.shuffle(cycle)
        ops += cycle
    return Prepared(ops, len(cycle), gen.action_defects(rng, base, workdir) if perturbed else [])


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: set up once in a fresh interpreter and print the seconds."""
    start = perf_counter_ns()
    with tempfile.TemporaryDirectory(dir=work_root()) as tmp:
        prepare(workload, seed, Path(tmp))
        print((perf_counter_ns() - start) / 1e9)


def work_root() -> Path:
    path = ROOT / ".perfbench_run"
    path.mkdir(exist_ok=True)
    return path


def measure_setup(workload: str, seed: int) -> float:
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


# --- running operations -------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ProcessRunner:
    """Runs `python -m seifert_actions ARGV` and reaps it with wait4 for
    its peak RSS."""

    def __init__(self, workdir: Path):
        self.env = child_env()
        self.out = open(workdir / "stdout", "w+b")
        self.err = open(workdir / "stderr", "w+b")
        self.peak_kb = 0

    def close(self):
        self.out.close()
        self.err.close()

    def __call__(self, argv):
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        start = perf_counter_ns()
        proc = subprocess.Popen([sys.executable, "-m", "seifert_actions", *argv],
                                stdout=self.out, stderr=self.err, stdin=subprocess.DEVNULL,
                                env=self.env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, read(self.out), read(self.err), elapsed


def read(f) -> str:
    f.seek(0)
    return f.read().decode("utf-8", "replace")


def run_in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue(), perf_counter_ns() - start


def failure(op, code, out, err):
    """Why a CLI result is wrong, or None."""
    if "Traceback (most recent call last)" in err:
        return "traceback on stderr"
    if code != op.exit:
        return f"exit {code}, expected {op.exit}"
    if op.stdout is not None and out != op.stdout:
        return "wrong stdout"
    if op.check is not None and not op.check(out):
        return "wrong stdout"
    if op.exit == 2 and op.needle not in err:
        return f"stderr does not name the input ({err.strip()[:120]!r})"
    return None


def run_kernel(op):
    start = perf_counter_ns()
    try:
        result = op.run()
    except Exception:
        return perf_counter_ns() - start, "exception: " + traceback.format_exc(limit=3)
    elapsed = perf_counter_ns() - start
    return elapsed, None if op.check(result) else "wrong answer"


class Loop:
    """Closed loop over the operations until the time budget is spent."""

    def __init__(self):
        self.times = array("q")  # ns per operation; arrays keep the loop's own memory small
        self.done = array("q")
        self.failures: list[tuple[str, str, list | None]] = []

    def run(self, ops, budget_s, step, cycle=1, indices=None):
        """Run `ops` in order (or the given indices) in whole cycles of
        `cycle` operations, starting a cycle only while it is expected to
        end within the budget, so every run has the same mix."""
        order = indices if indices is not None else range(10**9)
        start = perf_counter_ns()
        deadline = start + int(budget_s * 1e9)
        for i in order:
            if indices is None and i % cycle == 0 and i:
                now = perf_counter_ns()
                if now + (now - start) // (i // cycle) > deadline:
                    break
            op = ops[i % len(ops)]
            ns, why = step(op, i)
            self.times.append(ns)
            self.done.append(i)
            if why:
                self.failures.append((op.kind, why, op.argv))
        return self


def cli_step(runner):
    def step(op, i):
        code, out, err, ns = runner(op.argv)
        return ns, failure(op, code, out, err)

    return step


# --- metrics ------------------------------------------------------------------


def quantile(values, q):
    """Value at fraction q of the sorted samples, interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(workload, loop, setup_s, runner):
    ms = [t / 1e6 for t in loop.times]
    if workload == "kernels":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = runner.peak_kb
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(loop.times) / (sum(loop.times) / 1e9), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (quantile(ms, 0.9), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def run_defects(defects, runner):
    """Run the known-defect inputs once; return the failing ones."""
    out = []
    for op in defects:
        code, stdout, stderr, _ = runner(op.argv)
        why = failure(op, code, stdout, stderr)
        if why:
            out.append((op.kind, why, op.argv))
    return out


def import_probe() -> float:
    """Median ms to import seifert_actions.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter_ns(); import seifert_actions.cli; "
            "print(time.perf_counter_ns() - t)")
    values = []
    for _ in range(5):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, check=True)
        values.append(int(proc.stdout) / 1e6)
    return statistics.median(values)


def bare_start_ms() -> float:
    """Median ms of a child interpreter that does nothing."""
    values = []
    for _ in range(5):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True)
        values.append((perf_counter_ns() - start) / 1e6)
    return statistics.median(values)


def traced_run(workload, prepared, seconds, runner):
    """Untraced and traced passes over the same operations, then the
    layer points and the known-defect inputs.  Returns (per-layer metrics,
    operations attempted, failures, known defects)."""
    import seifert_actions
    from seifert_actions import action, cli, groups, obstruction, orbifold, rational, seifert
    from seifert_actions import structure, torus

    import points

    modules = dict(action=action, cli=cli, groups=groups, obstruction=obstruction,
                   orbifold=orbifold, rational=rational, seifert=seifert,
                   structure=structure, torus=torus)
    ops = prepared.ops
    in_process = workload == "kernels"
    loops = []
    counts_extra = {"report_bytes": 0}

    def lib_step(traced):
        def step(op, i):
            tracer.op = i
            if in_process:
                return run_kernel(op)
            code, out, err, ns = run_in_process(cli, op.argv)
            if traced and op.verb == "verify-action":
                counts_extra["report_bytes"] += len(out.encode())
            return ns, failure(op, code, out, err)

        return step

    untraced, traced, tracer = Loop(), Loop(), spans.Tracer()

    def both(chunk):
        """Run a chunk untraced, then the same chunk traced."""
        untraced.run(ops, 0, lib_step(False), indices=chunk)
        restore = spans.instrument(tracer, seifert_actions, modules)
        try:
            traced.run(ops, 0, lib_step(True), indices=chunk)
        finally:
            restore()

    # Untraced and traced passes alternate chunk by chunk, so both see the
    # same machine state; their ratio is the tracing overhead.
    if in_process:
        size = 64 * prepared.cycle
        deadline = perf_counter_ns() + int(0.6 * seconds * 1e9)
        start = 0
        while start == 0 or perf_counter_ns() < deadline:
            both(range(start, start + size))
            start += size
    else:
        spawned = Loop().run(ops, 0.25 * seconds, cli_step(runner), prepared.cycle)
        loops.append(spawned)
        for i in range(prepared.cycle):  # one-time in-process costs, untimed
            lib_step(False)(ops[i], i)
        done = list(spawned.done)
        for k in range(0, len(done), prepared.cycle):
            both(done[k:k + prepared.cycle])
    loops += [untraced, traced]
    tracer.write(work_root() / f"spans-{workload}.csv.gz")

    self_ns, calls = tracer.summary()
    n_ops = len(traced.times)
    per_op = 1 / n_ops
    m = {}
    for name in spans.SPANS:
        key = "cli.main_self" if name == "cli.main" else name
        m[f"{key}_ms"] = (self_ns[name] / 1e6 * per_op, "ms/op")
        key = "rational.angle_ops" if name == "rational.angle" else f"{name}_calls"
        m[key] = (calls[name] * per_op, "count/op")
    c = tracer.counts
    for name in ("groups.table_entries", "groups.build_entries", "action.pairs_checked",
                 "action.law_checks", "action.violations"):
        m[name] = (c[name] * per_op, "count/op")
    m["action.verify_ns_per_law_check"] = (
        self_ns["action.verify"] / c["action.law_checks"] if c["action.law_checks"] else 0,
        "ns/check")
    m["action.report_bytes"] = (counts_extra["report_bytes"] * per_op, "bytes/op")
    if in_process:  # no process per operation: the bare interpreter start
        m["proc.start_ms"] = (bare_start_ms(), "ms")
    else:
        gaps = [(a - b) / 1e6 for a, b in zip(spawned.times, untraced.times)]
        m["proc.start_ms"] = (statistics.median(gaps), "ms")
    m["cli.import_ms"] = (import_probe(), "ms")
    m["trace.overhead_ratio"] = (sum(traced.times) / sum(untraced.times), "ratio")
    # Time in a layer span: everything traced except the self time of
    # cli.main, which holds the CLI's own dispatch and printing.
    attributed = sum(ns for name, ns in self_ns.items() if name != "cli.main")
    m["trace.attributed_ratio"] = (attributed / sum(traced.times), "ratio")
    m["trace.ops"] = (n_ops, "count")
    m.update(points.layer_points(random.Random(len(ops))))
    defects = run_defects(prepared.defects, runner)
    m["known_defects.failed"] = (len(defects), "count")
    attempted = sum(len(loop.times) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    return m, attempted, failures, defects


# --- entry point ----------------------------------------------------------------


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics(spec, trace_on: bool):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def show(text):
    print(text, file=sys.stderr)


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "seifert_actions" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'seifert_actions'}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    declared = declared_metrics(spec, bool(args.trace))

    workdir = Path(tempfile.mkdtemp(dir=work_root()))
    runner = None
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        prepared = prepare(args.workload, args.seed, workdir)
        runner = ProcessRunner(workdir)
        runner(["--version"])  # compiles bytecode caches before anything is timed
        runner.peak_kb = 0
        if args.trace:
            metrics, attempted, failures, defects = traced_run(
                args.workload, prepared, args.seconds, runner)
        else:
            if args.workload == "kernels":
                loop = Loop().run(prepared.ops, args.seconds,
                                  lambda op, i: run_kernel(op), prepared.cycle)
            else:
                loop = Loop().run(prepared.ops, args.seconds, cli_step(runner), prepared.cycle)
            metrics = end_to_end(args.workload, loop, setup_s, runner)
            attempted, failures = len(loop.times), loop.failures
            defects = run_defects(prepared.defects, runner)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(declared) or any(metrics[k][1] != declared[k] for k in declared):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(declared))} or units differ")
    show(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
         f"ops {attempted}  failed {len(failures)}  nproc {os.cpu_count()}  "
         f"python {platform.python_version()}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        show(f"  {name:40s} {value:14.4f} {unit}")

    def relative(argv):
        """Paths under the run's scratch directory without it, so that the
        lines of different runs can be compared."""
        return argv and [a.replace(f"{workdir}{os.sep}", "") for a in argv]

    for kind, why, argv in failures[:20]:
        show(f"  FAILED {kind}: {why}  argv={relative(argv)}")
    for kind, why, argv in defects:
        show(f"  KNOWN DEFECT {kind}: {why}  argv={relative(argv)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
