"""The chiralis benchmark: closed-loop CLI workloads with checked reports.

Run from the root of a checkout:

    python3 perfbench/run.py --workload koszul --seed 1 --seconds 40 --trace 0

One client runs one ``chiralis`` subcommand at a time, each in a fresh
``python -m chiralis.cli`` child, and starts the next only when the last
has exited (a closed loop with one client, so two cores are never
oversubscribed).  A pass runs every command of the workload once; passes
repeat while another one fits in ``--seconds`` (at least one runs), and
each metric is the median over passes.  ``CHIRALIS_THREADS`` is removed
from the children's environment, so the CLI uses its single worker.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
command twice per pass, untraced and then under ``tracer.py``, requires
the two reports to be byte-identical, and reports the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
Work files go to ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# set-up samples in a run: about this many are spread over the passes,
# and the rest, if any, are taken after them
SETUP_RUNS = 11
# no pass starts that would end later than this (a run must end in 180 s)
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0

# fresh-process set-up: import the CLI and build each workload's top-level
# objects, timed inside the child
SETUP = {
    "koszul": """
from chiralis.koszul import ChiralKoszul
objs = [ChiralKoszul(2), ChiralKoszul(3)]
""",
    "borcherds": """
from chiralis.algebra import SuperPolyAlgebra
from chiralis.fock import BGSystem
gens = []
for i in (1, 2):
    gens += [(f"x{i}", 0, 0), (f"xi{i}", 1, -1)]
fk = BGSystem(SuperPolyAlgebra(gens))
letters = []
for name, _par, _deg in gens:
    for w in range(0, 4):
        letters.append(fk.coord(name, -w))
        if w >= 1:
            letters.append(fk.mom(name, -w))
""",
    "structures": """
from fractions import Fraction
from chiralis.algebra import SuperPolyAlgebra
from chiralis.algebroid import standard_chiral_infty_algebroid
from chiralis.chevalley import JetWorld
mu = JetWorld(chiralis.cli.even_base(2)).bracket()
P = standard_chiral_infty_algebroid(SuperPolyAlgebra(
    [("x", 0, 0), ("xi", 1, -1)], D={"xi": {(("x", 2),): Fraction(1)}}))
""",
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metrics: (name, unit); see layer_metrics for how each is made
PER_LAYER = [
    ("koszul.cell_basis.calls", "count"),
    ("koszul.cell_basis.self_s", "s"),
    ("koszul.cell_basis.monomials", "count"),
    ("koszul.cell_basis.calls_per_cell", "calls/cell"),
    ("koszul.cell_cohomology.calls_per_cell", "calls/cell"),
    ("koszul.differential_matrix.self_s", "s"),
    ("koszul.character_table.self_s", "s"),
    ("fock.nth.calls", "count"),
    ("fock.nth.self_s", "s"),
    ("fock.memo_entries", "count"),
    ("fock.borcherds_full_check.calls", "count"),
    ("fock.borcherds_full_check.self_s", "s"),
    ("exact.echelon.calls", "count"),
    ("exact.echelon.self_s", "s"),
    ("exact.echelon.rows", "count"),
    ("exact.echelon.nnz_in", "count"),
    ("exact.echelon.nnz_out", "count"),
    ("exact.echelon.calls_per_differential", "calls/diff"),
    ("exact.rank_kernel.self_s", "s"),
    ("exact.reduce_against.self_s", "s"),
    ("ring.pmul.calls", "count"),
    ("ring.pmul.self_s", "s"),
    ("ring.derive.calls", "count"),
    ("ring.derive.self_s", "s"),
    ("algebra.translate.calls", "count"),
    ("algebra.translate.self_s", "s"),
    ("algebra.derham_d.self_s", "s"),
    ("starops.jacobi_defect.calls", "count"),
    ("starops.jacobi_defect.self_s", "s"),
    ("starops.lie_star_check.calls", "count"),
    ("starops.lie_star_check.self_s", "s"),
    ("chevalley.to_fock.calls", "count"),
    ("chevalley.to_fock.self_s", "s"),
    ("chevalley.from_fock.calls", "count"),
    ("chevalley.from_fock.self_s", "s"),
    ("chevalley.bracket.self_s", "s"),
    ("algebroid.chiral_infty_twist.calls", "count"),
    ("algebroid.chiral_infty_twist.self_s", "s"),
    ("algebroid.twist_chiral.self_s", "s"),
    ("algebroid.lc_d.self_s", "s"),
    ("linfty.direct_jacobi_report.self_s", "s"),
    ("linfty.coderivation_square_report.self_s", "s"),
    ("linfty.disagreements", "count"),
    ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "bytes"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHIRALIS_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def run_child(argv, stdout_path: Path, env: dict):
    """Runs one child to completion; returns (wall seconds, peak RSS in
    KiB, exit code).  stderr goes next to stdout, as ``.err``."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss of this child alone, in KiB on Linux
    return wall, usage.ru_maxrss, proc.returncode


class SetupTimer:
    """Fresh processes that import ``chiralis.cli`` and build the
    workload's top-level objects, each timed inside the child.  Samples
    are taken between commands, about every ``interval`` seconds, so
    that they span the whole run instead of a few seconds of it."""

    def __init__(self, workload: str, workdir: Path, env: dict,
                 interval: float):
        snippet = ("import time\nt0 = time.perf_counter()\n"
                   "import chiralis.cli\n" + SETUP[workload]
                   + "print(repr(time.perf_counter() - t0))\n")
        self.argv = [sys.executable, "-c", snippet]
        self.out = workdir / "setup.out"
        self.env = env
        self.times: list = []
        self.interval = interval
        self.sample(keep=False)  # fills the bytecode cache
        self.last = time.perf_counter()

    def due(self) -> None:
        """Takes a sample if ``interval`` has passed since the last."""
        if time.perf_counter() - self.last >= self.interval:
            self.sample()
            self.last = time.perf_counter()

    def sample(self, keep: bool = True) -> None:
        _, _, code = run_child(self.argv, self.out, self.env)
        if code != 0:
            raise RuntimeError("set-up snippet failed: "
                               + self.out.with_suffix(".err").read_text())
        if keep:
            self.times.append(float(self.out.read_text()))


class Pass:
    """One pass over a workload's commands."""

    def __init__(self):
        self.walls: dict = {}
        self.rss: dict = {}
        self.digests: dict = {}
        self.reports: dict = {}
        self.traced_walls: dict = {}
        self.layers: list = []  # tracer.summarize() per traced command


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.workdir = BUILD / "perfbench" / workload
        self.env = child_env()
        self.pinned = workloads.expected_sha256()
        # a command is counted once per run, however many passes ran it,
        # so that the counts depend on the seed alone and not on how
        # many passes fit in --seconds
        self.attempted: set = set()
        self.failed: set = set()
        self.problems: list = []  # unexpected failures: make correct false
        self.notes: list = []  # expected failures (known defects)

    def prepare(self) -> list:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        inputs = workloads.write_inputs(self.workdir, self.seed)
        return workloads.commands(self.workload, self.seed, inputs)

    def run_command(self, cmd, p: Pass, traced: bool) -> None:
        tag = "traced" if traced else "plain"
        out = self.workdir / f"{cmd.id}.{tag}.json"
        if traced:
            prefix = str(self.workdir / f"{cmd.id}.spans")
            argv = [sys.executable, str(Path(tracer.__file__)), prefix,
                    cmd.id, "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "chiralis.cli", *cmd.args]
        wall, rss_kb, code = run_child(argv, out, self.env)
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        self.attempted.add(cmd.id)
        problems, expected = workloads.check(cmd, code, data, digest,
                                             self.pinned)
        if traced:
            p.traced_walls[cmd.id] = wall
            if data != p.reports.get(cmd.id):
                problems.append("traced report differs from the untraced one")
                expected = False
            if os.path.exists(prefix + ".json"):
                p.layers.append(tracer.summarize(prefix))
            else:
                problems.append("the traced run wrote no spans")
        else:
            p.walls[cmd.id], p.rss[cmd.id] = wall, rss_kb
            p.digests[cmd.id], p.reports[cmd.id] = digest, data
        if problems:
            self.failed.add(cmd.id)
            where = f"{cmd.id} ({tag})"
            if expected:
                note = f"{where}: {problems[0]}"
                if note not in self.notes:
                    self.notes.append(note)
            else:
                err = out.with_suffix(".err").read_text(errors="replace")
                tail = err.strip().splitlines()[-1:] if err.strip() else []
                self.problems.append(f"{where}: " + "; ".join(problems + tail))

    def run_passes(self, cmds, setup=None) -> list:
        """Passes while another fits in --seconds; ``setup``, if given,
        takes its set-up samples between commands."""
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            p = Pass()
            for cmd in cmds:
                self.run_command(cmd, p, traced=False)
                if self.trace:
                    self.run_command(cmd, p, traced=True)
                if setup is not None:
                    setup.due()
            for cmd in cmds:
                first = passes[0].digests.get(cmd.id) if passes else None
                if first is not None and p.digests[cmd.id] != first:
                    self.problems.append(
                        f"{cmd.id}: report changed between passes")
            passes.append(p)
            # start another pass only if it should end within --seconds
            # (the first pass always runs)
            used = time.perf_counter() - start
            last = time.perf_counter() - t0
            if used + last > min(self.seconds, RUN_BUDGET_S):
                return passes


def median(values) -> float:
    return float(statistics.median(values))


def command_times(cmds, passes) -> dict:
    """Per-command time metric -> its seconds in each pass."""
    out = {}
    for cmd in cmds:
        out.setdefault(cmd.metric, [0.0] * len(passes))
        for i, p in enumerate(passes):
            out[cmd.metric][i] += p.walls[cmd.id]
    return out


def disagreements(report: bytes) -> int:
    try:
        return len(json.loads(report).get("disagreements") or [])
    except (ValueError, AttributeError):
        return 0


def layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass (all its commands)."""
    calls, self_s, counts = {}, {}, {}
    for summary in p.layers:
        for name, agg in summary["layers"].items():
            calls[name] = calls.get(name, 0) + agg["calls"]
            self_s[name] = self_s.get(name, 0.0) + agg["self_s"]
        for key, n in summary["counts"].items():
            counts[key] = counts.get(key, 0) + n

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(base, 0)
        elif kind == "self_s":
            values[name] = self_s.get(base, 0.0)
    values.update({
        "koszul.cell_basis.monomials":
            counts.get("koszul.cell_basis.monomials", 0),
        "koszul.cell_basis.calls_per_cell": ratio(
            calls.get("koszul.cell_basis", 0),
            counts.get("koszul.cell_basis.cells", 0)),
        "koszul.cell_cohomology.calls_per_cell": ratio(
            calls.get("koszul.cell_cohomology", 0),
            counts.get("koszul.cell_cohomology.cells", 0)),
        "fock.memo_entries": counts.get("fock.memo_entries", 0),
        "exact.echelon.rows": counts.get("exact.echelon.rows", 0),
        "exact.echelon.nnz_in": counts.get("exact.echelon.nnz_in", 0),
        "exact.echelon.nnz_out": counts.get("exact.echelon.nnz_out", 0),
        "exact.echelon.calls_per_differential": ratio(
            calls.get("exact.echelon", 0),
            calls.get("koszul.differential_matrix", 0)),
        "linfty.disagreements": disagreements(
            p.reports.get("linfty_check", b"{}")),
        "cli.emit.bytes": sum(len(d) for d in p.reports.values()),
        "trace.overhead_s": (sum(p.traced_walls.values())
                             - sum(p.walls.values())),
    })
    return values


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "CHIRALIS_THREADS": "unset in every child (one worker)",
        "peak_rss": "each child's own ru_maxrss, from wait4",
        "machine_settings": "untouched: no cache drops, pinning or "
                            "cgroup changes",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through run_child so that the running child is
    # killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "chiralis" / "cli.py").is_file():
        print(f"error: no chiralis sources under {ROOT / 'src'}; run from "
              "the root of a chiralis checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    cmds = bench.prepare()
    setup = None if bench.trace else SetupTimer(
        args.workload, bench.workdir, bench.env,
        min(args.seconds, RUN_BUDGET_S) / SETUP_RUNS)
    passes = bench.run_passes(cmds, setup)
    while setup is not None and len(setup.times) < SETUP_RUNS:
        setup.sample()

    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "passes": len(passes),
               "environment": environment()}
    if bench.trace:
        per_pass = [layer_metrics(p) for p in passes]
        metrics = {
            name: {"value": median(v[name] for v in per_pass), "unit": unit}
            for name, unit in PER_LAYER
        }
        missing = sorted({m for p in passes for s in p.layers
                          for m in s["missing"]})
        summary["missing_targets"] = missing
    else:
        walls = [sum(p.walls.values()) for p in passes]
        rss = [max(p.rss.values()) / 1024 for p in passes]
        values = {"wall_s": median(walls), "peak_rss_mb": median(rss),
                  "setup_s": median(setup.times)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        summary["commands_s"] = {
            name: median(v)
            for name, v in command_times(cmds, passes).items()}
        summary["setup_runs"] = len(setup.times)
    summary["pass_walls_s"] = [sum(p.walls.values()) for p in passes]
    summary["failed_share"] = len(bench.failed) / len(bench.attempted)
    summary["report_sha256"] = passes[-1].digests
    summary["expected_failures"] = bench.notes
    summary["unexpected_failures"] = bench.problems
    print_summary(summary, metrics)
    with open(bench.workdir / f"summary.trace{args.trace}.json", "w") as fh:
        json.dump({"summary": summary, "metrics": metrics}, fh, indent=1)
    result = {"correct": not bench.problems,
              "attempted": len(bench.attempted),
              "failed": len(bench.failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


def print_summary(summary: dict, metrics: dict) -> None:
    env = summary["environment"]
    print(f"chiralis benchmark: workload {summary['workload']}, seed "
          f"{summary['seed']}, trace {summary['trace']}, "
          f"{summary['passes']} pass(es); Python {env['python']}, nproc "
          f"{env['nproc']}, CHIRALIS_THREADS {env['CHIRALIS_THREADS']}")
    print("  medians over passes:")
    for name, m in metrics.items():
        print(f"    {name:44s} {m['value']:.6g} {m['unit']}")
    for name, v in summary.get("commands_s", {}).items():
        print(f"    {name:44s} {v:.6g} s")
    print(f"    {'failed_share':44s} {summary['failed_share']:.6g} "
          "(failed / attempted commands; each command once)")
    for cid, digest in summary["report_sha256"].items():
        print(f"  report {cid:28s} sha256 {digest}")
    for note in summary["expected_failures"]:
        print(f"  expected failure: {note}")
    for problem in summary["unexpected_failures"]:
        print(f"  FAILED: {problem}")
    for target in summary.get("missing_targets", []):
        print(f"  not traced (absent from the program): {target}")


if __name__ == "__main__":
    sys.exit(main())
