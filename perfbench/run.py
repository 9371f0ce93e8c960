"""trigrow benchmark: timed CLI workloads with independent output checks.

Run from the repository root:

    python3 perfbench/run.py --workload eig-solve --seed 1 --seconds 24 --trace 0

Load model: a closed loop with one client. Each operation is one `trigrow`
invocation in a fresh interpreter, run from `src/` of this tree
(PYTHONPATH=src, one BLAS/OpenMP thread), and the next starts only when it
has ended. Passes over the workload's operation list repeat until the
measured time reaches --seconds; the last may stop part way, but two are
always complete, so repeats can be compared byte for byte. A fixed reference
program runs after every invocation, and setup_s and wall_s are given in
reference seconds (see HostSpeed). Every report is checked against
references the benchmark computes itself, outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 replays one pass in this
process through `trigrow.cli.main`, each operation untraced and then traced, and
prints the per-layer metrics (see tracer.py), the fixed probes, and re-timed rows of the
ROADMAP baseline table. The last line of standard output is the JSON result;
details go to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):  # before numpy loads anywhere
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

from checks import check_op
from workloads import WORKLOADS, Op, baseline_ops, build_ops, pass_orders

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up launches at the start and before each pass, so that setup_s samples
# the whole run and not only its first seconds
SETUP_AT_START = 3
SETUP_PER_PASS = 2
OP_TIMEOUT_S = 60.0  # every operation takes a few seconds; a hang must not outlast the run
RUN_BUDGET_S = 150.0  # no invocation starts if it could end after this
REF_S = 0.35  # setup_s and wall_s are in seconds on a host where HostSpeed.PROGRAM takes this

# The ROADMAP baseline table's values (s), printed next to the harness's re-timings.
# eig rows time eigenvectors(ROBUST) in-process; the others time cli.main.
ROADMAP_TABLE = {
    "baseline.eig_robust_m500_s": 0.09,
    "baseline.eig_robust_m1000_s": 1.47,
    "baseline.eig_robust_m2000_s": 8.8,
    "baseline.cond_m200_s": 1.25,
    "baseline.perturb_m50_s": 3.0,
    "baseline.gen_x_json_m600_s": 5.0,
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd: Path, cmd=(sys.executable, "-m", "trigrow.cli")
              ) -> tuple[int, float, int, bytes]:
    """One `trigrow` invocation, or another program given as cmd:
    (exit code, wall seconds, max RSS KiB, stdout)."""
    out_path = cwd / "stdout"
    with open(out_path, "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [*cmd, *argv], cwd=cwd, env=child_env(), stdout=out, stderr=err,
        )
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss, out_path.read_bytes()


class HostSpeed:
    """A fixed reference program, launched after every invocation, that
    turns the run's times into reference seconds.

    This host's speed swings by up to 2x in episodes of seconds to minutes:
    a pure CPU loop shows it, with CPU time equal to wall time and no steal
    time. The reference is a fresh interpreter that imports numpy and does
    the kinds of work the CLI does (an int loop, bigint decimal strings,
    Fraction sums, a numpy pass). It never imports trigrow, so a change to
    the program does not move it. Each launch's time, divided by the median
    of the NEIGHBOURS reference times nearest to it in launch order and
    multiplied by REF_S, keeps the program's cost and loses most of the
    host's swing. On a shared 2-vCPU x86-64 VM, over ten runs of
    cond-verify, the spread of wall_s (quartile distance over median) fell
    from 9.6% raw to 4.5% scaled; one scale for the whole run gave 9.9%.
    """

    PROGRAM = (
        "import math, numpy\n"
        "from fractions import Fraction\n"
        "acc = 0\n"
        "for i in range(400_000):\n"
        "    acc += (i * i) ^ (i >> 3)\n"
        "acc += sum(len(str(math.comb(2000 + k, 1000))) for k in range(100))\n"
        "acc += sum(Fraction(1, k) for k in range(1, 2000)).denominator % 7\n"
        "acc += int(numpy.cumsum(1.0 / numpy.arange(1.0, 200_001.0))[-1])\n"
        "print(acc)\n"
    )
    NEIGHBOURS = 6

    def __init__(self, work: Path) -> None:
        self.work = work
        self.stdout: bytes | None = None
        self.timeline: list[tuple[object, float]] = []  # (key, seconds) of every launch

    def record(self, key, seconds: float) -> None:
        self.timeline.append((key, seconds))

    def reference(self) -> None:
        rc, seconds, _, stdout = run_child(["-c", self.PROGRAM], self.work, cmd=(sys.executable,))
        if rc != 0 or self.stdout not in (None, stdout):
            raise SystemExit(f"the reference program failed: exit code {rc}, output {stdout!r}")
        self.stdout = stdout
        self.record("reference", seconds)

    def scaled(self, key) -> list[float]:
        """The times of the launches recorded under key, in reference seconds."""
        refs = [i for i, (k, _) in enumerate(self.timeline) if k == "reference"]
        out = []
        for i, (k, seconds) in enumerate(self.timeline):
            if k == key:
                near = sorted(refs, key=lambda j: abs(j - i))[: self.NEIGHBOURS]
                out.append(seconds * REF_S / statistics.median(self.timeline[j][1] for j in near))
        return out


class Judge:
    """Records each invocation; judges all of them after the timed region.

    The first output of each distinct argv is kept and checked; every repeat
    must be byte-identical to it. Checking only at the end keeps this
    process small while children run: a child's max RSS includes the memory
    of the process that spawned it.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.first: dict[tuple, tuple] = {}  # argv -> (op, rc, digest, stdout, kept file)
        self.records: list[tuple[tuple, str]] = []  # (argv, digest) per invocation

    def record(self, op: Op, rc: int, stdout: bytes) -> None:
        digest = hashlib.sha256(f"{rc}\0".encode() + stdout)
        path = self.work / op.output if op.output else None
        if path is not None and path.exists():
            with open(path, "rb") as fh:
                digest.update(hashlib.file_digest(fh, "sha256").digest())
        if op.argv not in self.first:
            kept = None
            if path is not None and path.exists():
                kept = path.with_name(f"first-{len(self.first)}-{path.name}")
                path.rename(kept)
            self.first[op.argv] = (op, rc, digest.hexdigest(), stdout, kept)
        elif path is not None and path.exists():
            path.unlink()
        self.records.append((op.argv, digest.hexdigest()))

    def verdict(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every recorded invocation."""
        problems, passed = [], {}
        for argv, (op, rc, _, stdout, kept) in self.first.items():
            output = kept.read_text() if kept is not None else None
            errs = check_op(op, rc, stdout.decode(), output)
            passed[argv] = not errs
            problems += [f"{' '.join(argv)}: {e}" for e in errs]
        failed = 0
        for argv, digest in self.records:
            if digest != self.first[argv][2]:
                problems.append(f"{' '.join(argv)}: output differs from its first run")
                failed += 1
            elif not passed[argv]:
                failed += 1
        return len(self.records), failed, problems


def record_environment(seed: int) -> dict:
    probe = (
        "import json, sys, numpy, trigrow\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = {k: blas.get(k) for k in ('name', 'version', 'openblas configuration')}\n"
        "except (TypeError, KeyError) as exc:  # numpy builds without the dict form\n"
        "    blas = {'unknown': repr(exc)}\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
        "    'blas': blas, 'trigrow_file': trigrow.__file__}))\n"
    )
    res = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                         text=True, timeout=60)
    if res.returncode != 0:
        raise SystemExit(f"cannot import trigrow from {SRC}: {res.stderr.strip()}")
    env = json.loads(res.stdout)
    if not Path(env["trigrow_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"trigrow imported from {env['trigrow_file']}, not from {SRC}")
    env.update(nproc=os.cpu_count(), seed=seed, loadavg_start=os.getloadavg(),
               threads={v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    return env


def measure_setup(work: Path, launches: int, speed: HostSpeed) -> None:
    """`trigrow --version` launches, a fresh interpreter to a ready CLI,
    recorded under "setup"."""
    for _ in range(launches):
        rc, seconds, _, stdout = run_child(["--version"], work)
        if rc != 0 or not stdout.startswith(b"trigrow "):
            raise SystemExit(f"trigrow --version failed with exit code {rc}")
        speed.record("setup", seconds)


def timed_run(ops: list[Op], seed: int, seconds: float, judge: Judge, started: float):
    """Passes over the operations until --seconds of invocations are measured.

    Two passes are always complete, so that every invocation has a repeat.
    After that the run stops as soon as the measured time reaches --seconds,
    possibly within a pass, so it ends within one invocation of --seconds.
    wall_s takes each invocation's median over its own repeats, which a
    partial pass does not bias.
    """
    speed = HostSpeed(judge.work)
    speed.reference()  # warm-up: the first launch of a run pays for a cold file cache
    speed.timeline.clear()
    measure_setup(judge.work, SETUP_AT_START, speed)
    measured = longest = 0.0
    peak_kib = passes = 0
    notes = []
    orders = pass_orders(ops, seed)
    done = False
    while not done and (passes < 2 or measured < seconds):
        measure_setup(judge.work, SETUP_PER_PASS, speed)
        for op in next(orders):
            if passes >= 2:
                if measured >= seconds:
                    done = True
                    break
                if time.perf_counter() - started + 1.5 * longest > RUN_BUDGET_S:
                    notes.append("stopped early: another invocation could exceed the time budget")
                    done = True
                    break
            rc, dt, kib, stdout = run_child(op.argv, judge.work)
            speed.record(op.argv, dt)
            speed.reference()
            measured += dt
            longest = max(longest, dt)
            peak_kib = max(peak_kib, kib)
            judge.record(op, rc, stdout)
        else:
            passes += 1

    def raw(key) -> list[float]:
        return [t for k, t in speed.timeline if k == key]

    # one pass with each invocation at its median time over the run's repeats
    metrics = {"setup_s": statistics.median(speed.scaled("setup")),
               "wall_s": sum(statistics.median(speed.scaled(op.argv)) for op in ops),
               "peak_rss_mb": peak_kib / 1024.0}
    kinds = defaultdict(lambda: ([], []))
    for op in ops:
        kinds[op.kind][0].extend(raw(op.argv))
        kinds[op.kind][1].extend(speed.scaled(op.argv))
    detail = {
        "complete_passes": passes,
        "measured_s": measured,
        "raw": {"setup_s": statistics.median(raw("setup")),
                "wall_s": sum(statistics.median(raw(op.argv)) for op in ops)},
        "timeline": [(k if isinstance(k, str) else " ".join(k), t) for k, t in speed.timeline],
        "notes": notes,
        "per_kind": {
            f"{kind}_s": {"median": statistics.median(r), "median_ref": statistics.median(sc),
                          "samples": len(r), "all": r}
            for kind, (r, sc) in sorted(kinds.items())
        },
    }
    return metrics, detail


def run_inprocess(main, op_argv, work: Path) -> tuple[int, float, bytes]:
    """cli.main(argv) in this process, cwd in the work directory, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(list(op_argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed operation, as in a child process
                traceback.print_exc()
                rc = 1
            seconds = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return rc, seconds, out.getvalue().encode()


def traced_run(ops: list[Op], seed: int, judge: Judge):
    sys.path.insert(0, str(SRC))
    import tracer
    import trigrow
    from trigrow import cli, conditioning, matgen, oracle, solver, verify

    modules = {"trigrow": trigrow, "cli": cli, "conditioning": conditioning, "matgen": matgen,
               "oracle": oracle, "solver": solver, "verify": verify}
    work = judge.work
    order = next(pass_orders(ops, seed))  # the first pass of the timed run

    # each op runs untraced and then traced, back to back, so that drift in
    # machine speed cancels out of the overhead
    tr = tracer.Tracer()
    root = tr.wrap("cli.main", cli.main)
    untraced = traced = 0.0
    for idx, op in enumerate(order):
        rc, dt, stdout = run_inprocess(cli.main, op.argv, work)
        untraced += dt
        judge.record(op, rc, stdout)
        tr.op = idx
        with tracer.installed(tr, modules):
            rc, dt, stdout = run_inprocess(root, op.argv, work)
        traced += dt
        judge.record(op, rc, stdout)

    metrics = tracer.span_metrics(tr)
    metrics.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                    "trace.overhead_s": traced - untraced})
    metrics.update(tracer.probes(trigrow))
    for op in baseline_ops():
        rc, dt, stdout = run_inprocess(cli.main, op.argv, work)
        judge.record(op, rc, stdout)
        metrics[f"{op.kind}_s"] = dt
    metrics = {name: metrics[name] for name in tracer.PER_LAYER}
    detail = {
        "order": [list(op.argv) for op in order],
        "per_op": {f"{idx}:{order[idx].kind}": d
                   for idx, d in sorted(tracer.op_breakdown(tr).items())},
        "hook_s": tr.hook_s,
        "baseline_vs_roadmap": {k: {"harness": metrics[k], "roadmap": v}
                                for k, v in ROADMAP_TABLE.items()},
    }
    return metrics, detail, tr.span_records(), tracer.PER_LAYER


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "trigrow" / "cli.py").is_file():
        print(f"error: no trigrow source tree at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    ops = build_ops(args.workload, args.seed)
    env = record_environment(args.seed)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    judge = Judge(work)
    try:
        if args.trace:
            metrics, detail, spans, units = traced_run(ops, args.seed, judge)
        else:
            metrics, detail = timed_run(ops, args.seed, args.seconds, judge, started)
            spans, units = None, END_TO_END
        env["loadavg_end"] = os.getloadavg()
        attempted, failed, problems = judge.verdict()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail.update(env=env, workload=args.workload, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, problems=problems, metrics=metrics,
                  argv=[list(op.argv) for op in ops])
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")

    print(f"env: {json.dumps(env, default=str)}")
    for line in detail.get("notes", []):
        print(f"note: {line}")
    for problem in problems:
        print(f"FAILED {problem}")
    if not args.trace:
        raw = detail["raw"]
        print(f"raw setup_s {raw['setup_s']:.4f} s, raw wall_s {raw['wall_s']:.4f} s")
        print(f"complete passes: {detail['complete_passes']}; per-invocation medians, "
              "raw and in reference seconds:")
        for kind, d in detail["per_kind"].items():
            print(f"  {kind:<16} {d['median']:.4f} s  {d['median_ref']:.4f} s  (n={d['samples']})")
    else:
        print("traced operations: wall, then the largest layer times (inclusive)")
        for kind, d in detail["per_op"].items():
            top = sorted(((v, k) for k, v in d.items() if k != "wall"), reverse=True)[:4]
            print(f"  {kind:<18} {d['wall']:.3f} s: "
                  + ", ".join(f"{k} {v:.3f}" for v, k in top))
        print("baseline rows: harness vs ROADMAP table")
        for k, d in detail["baseline_vs_roadmap"].items():
            print(f"  {k:<30} {d['harness']:8.3f} s  (table {d['roadmap']} s)")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted}")
    print(f"details: {stem.with_suffix('.json').relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": int(metrics[name]) if unit in ("count", "bytes") else metrics[name],
                   "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
