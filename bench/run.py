"""End-to-end benchmark of the wteleport CLI, with a traced run per layer.

Usage, from the repository root:

    python3 bench/run.py --workload pure-sweep-csv --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each CLI invocation is its own process, started from the sources in ``src/``
the way the ``wteleport`` console script starts, and timed from spawn to
exit.  Load is a closed loop: one client runs one invocation at a time, since
the machine this was tuned on has two cores.  Before timing, one untimed
invocation fills the bytecode caches.  Every invocation's output goes through
``gate.py``; an invocation fails when it exits with an unexpected code or
fails the gate.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median invocation
time), ``rows_per_s``, ``setup_s`` (median of import-only probes) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced invocations with ones run
under ``tracer.py`` and reports per-layer calls and self times; see
``layer_metrics``.  The lines before the last give provenance, sample counts
and ``failed_frac``; the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
GATE = Path(__file__).resolve().parent / "gate.py"
CLI_ENTRY = "import sys; from wteleport.cli import entry; sys.exit(entry())"
SETUP_PROBE = "import wteleport.cli"
SETUP_PROBES = 11
MIN_SAMPLES = 4
# A run must end within 180 s; invocations still running at this point are killed.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    fmt: str
    mode: str | None  # sweep mode, None for verify
    points: int


def _spec(start: float, stop: float, count: int) -> str:
    return f"{start!r}:{stop!r}:{count}"


def make_workload(name: str, seed: int, warmup: bool = False) -> Workload:
    """The workload's CLI arguments.

    Seed 0 gives the reference grids: pure n 0.01:100:1000 x alpha^2
    0.05:0.95:10, and Werner n 0.1:10:10 x p 0:1:500.

    Other seeds move the grid endpoints inward by up to 5% (n) or 0.01
    (alpha^2, the start of p).  The Werner grid keeps p = 1, the pure input
    whose branches take the concurrence_mixed purity shortcut.  The warm-up
    form runs the same command over 2 x 2 points, which loads every module
    and code path the full grid does.
    """
    rng = random.Random(seed)

    def shift() -> float:
        return rng.uniform(0.0, 1.0) if seed else 0.0

    if name == "pure-sweep-csv":
        counts = (2, 2) if warmup else (1000, 10)
        n = _spec(0.01 * (1 + 0.05 * shift()), 100.0 * (1 - 0.05 * shift()), counts[0])
        alpha_sq = _spec(0.05 + 0.01 * shift(), 0.95 - 0.01 * shift(), counts[1])
        args = ("sweep", "--mode", "pure", "--n", n, "--alpha-sq", alpha_sq, "--format", "csv")
        return Workload(name, args, "csv", "pure", counts[0] * counts[1])
    if name == "werner-sweep-json":
        counts = (2, 2) if warmup else (10, 500)
        n = _spec(0.1 * (1 + 0.05 * shift()), 10.0 * (1 - 0.05 * shift()), counts[0])
        p = _spec(0.01 * shift(), 1.0, counts[1])
        args = ("sweep", "--mode", "werner", "--n", n, "--p", p, "--format", "json")
        return Workload(name, args, "json", "werner", counts[0] * counts[1])
    if name == "verify":
        return Workload(name, ("verify", "--format", "json"), "json", None, 7 * 19 + 7 * 11)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pure-sweep-csv", "werner-sweep-json", "verify")


@dataclass
class Child:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    cpu_s: float
    stderr: str


class Runner:
    """Starts children from the checkout and counts attempted and failed invocations."""

    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, args: list[str]) -> Child:
        """Run one child to completion; peak RSS and CPU are this child's alone (wait4)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.tmp / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=self.env,
                cwd=ROOT,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return Child(
            wall_s=wall,
            exit_code=proc.returncode,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            stderr=stderr,
        )

    def invoke(self, workload: Workload, spans: Path | None = None, invocation: int = 0) -> Child:
        """One gated CLI invocation, traced into `spans` when given."""
        output = self.tmp / f"output.{workload.fmt}"
        output.unlink(missing_ok=True)
        cli_args = [*workload.cli_args, "--output", str(output)]
        if spans is None:
            child = self.spawn(["-c", CLI_ENTRY, *cli_args])
        else:
            child = self.spawn([str(TRACER), str(spans), str(invocation), *cli_args])
        self._count(self._check(workload, child, output))
        return child

    def _count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if not self.problems:  # the first failure's findings; later ones usually repeat them
                self.problems = problems

    def _check(self, workload: Workload, child: Child, output: Path) -> list[str]:
        """The gate's findings; it runs in its own process, because a child's
        ru_maxrss starts from this process's RSS at fork, and parsing outputs
        here would inflate it."""
        if not output.exists() or (workload.mode is not None and child.exit_code != 0):
            return [f"exited {child.exit_code}: {child.stderr.strip()}"]
        args = [output, workload.fmt, workload.mode or "verify", workload.points, child.exit_code]
        try:
            done = subprocess.run(
                [sys.executable, str(GATE), *map(str, args)],
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=max(10.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return ["gate timed out"]
        if done.returncode != 0:
            return [f"gate failed on the output: {done.stderr.strip()}"]
        return json.loads(done.stdout)

    def probe_setup(self) -> float | None:
        child = self.spawn(["-c", SETUP_PROBE])
        if child.exit_code != 0:
            self._count([f"setup probe exited {child.exit_code}: {child.stderr.strip()}"])
            return None
        self._count([])
        return child.wall_s


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _spread(values: list[float]) -> str:
    """Median, range and sample count; plus the highest percentile with ten samples above it."""
    text = f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"
    if len(values) > 10:
        pct = int(100 * (1 - 10 / len(values)))
        if pct >= 50:
            cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            text += f", p{pct} {cut:.6g}"
    return text


def closed_loop(step, seconds: float, minimum: int, deadline: float) -> None:
    """Call `step` back to back, at least `minimum` times, while the next call,
    if it takes as long as the last, ends within `seconds`."""
    start = time.monotonic()
    calls, last = 0, 0.0
    while calls < minimum or time.monotonic() - start + last <= seconds:
        if time.monotonic() > deadline:
            break
        began = time.monotonic()
        step()
        last = time.monotonic() - began
        calls += 1


def _show(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_untraced(runner: Runner, workload: Workload, seconds: float) -> tuple[dict, list[str]]:
    # Import-only probes are spread over the run: machine speed drifts over
    # seconds, and a burst of probes would sample a single moment.
    setups: list[float] = []
    start = time.monotonic()

    def probe_until(share: float) -> None:
        while len(setups) < SETUP_PROBES * share:
            wall = runner.probe_setup()
            if wall is None:
                return
            setups.append(wall)

    def step() -> None:
        children.append(runner.invoke(workload))
        probe_until(min(1.0, (time.monotonic() - start) / seconds))

    children: list[Child] = []
    closed_loop(step, seconds, MIN_SAMPLES, runner.deadline)
    probe_until(1.0)

    walls = [c.wall_s for c in children]
    rss = [c.peak_rss_mb for c in children]
    wall = statistics.median(walls)
    rows = 8 * workload.points
    metrics = {
        "wall_s": _metric(wall, "s"),
        "rows_per_s": _metric(rows / wall, "1/s"),
        "setup_s": _metric(statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MiB"),
    }
    notes = [
        f"wall_s       {wall:.6g} s ({_spread(walls)})",
        f"rows_per_s   {rows / wall:.6g} 1/s ({rows} rows per invocation)",
        f"setup_s      {metrics['setup_s']['value']:.6g} s"
        + (f" ({_spread(setups)} import-only probes)" if setups else ""),
        f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.6g} MiB ({_spread(rss)})",
    ]
    return metrics, notes


# Per-layer groups of span names; see tracer.py for how spans are recorded.
LAYER_GROUPS = {
    "states.measure": ("states.measure",),
    "states.ctor": ("states.StateVector.__post_init__", "states.DensityMatrix.__post_init__"),
    "states.basis": ("states.bell_basis", "states.computational_basis"),
    "protocol.run_pure": ("protocol.run_protocol_pure",),
    "protocol.run_mixed": ("protocol.run_protocol_mixed",),
    "protocol.branch_map": ("protocol.branch_map",),
    "protocol.w_state": ("protocol.w_state",),
    "concurrence.pure": ("concurrence.concurrence_pure",),
    "concurrence.mixed": ("concurrence.concurrence_mixed",),
    "analysis.sweep": ("analysis.sweep",),
    "analysis.formula": (
        "analysis.predicted_concurrence_phi",
        "analysis.predicted_concurrence_psi",
        "analysis.predicted_concurrence_werner",
    ),
    "cli.main": ("cli.main", "cli.build_parser"),
    "cli.render": ("cli.cmd_run", "cli.cmd_sweep", "cli.cmd_verify", "cli.cmd_roots"),
}
# Units of exact counts, ratios of counts and sizes; these repeat between traced invocations.
EXACT_UNITS = ("count", "fraction", "bytes")


def layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as declared in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer"]}


def layer_metrics(spans_path: Path, output: Path) -> dict[str, float]:
    """Calls, self time (duration minus direct children) and ratios per layer group."""
    import numpy as np

    data = np.load(spans_path)
    meta = json.loads(str(data["meta"]))
    names = meta["names"]
    name, parent = data["name"], data["parent"]
    duration = data["end"] - data["start"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
    self_time = duration - children
    calls = np.bincount(name, minlength=len(names))
    self_by_name = np.bincount(name, weights=self_time, minlength=len(names))
    total_by_name = np.bincount(name, weights=duration, minlength=len(names))
    repeats = np.bincount(name, weights=data["repeat"], minlength=len(names))
    ids = {n: i for i, n in enumerate(names)}

    out: dict[str, float] = {}
    for group, members in LAYER_GROUPS.items():
        index = [ids[m] for m in members if m in ids]
        count = int(calls[index].sum())
        out[f"{group}.calls"] = count
        out[f"{group}.self_s"] = float(self_by_name[index].sum())
        out[f"{group}.s"] = float(total_by_name[index].sum())
        out[f"{group}.repeat_frac"] = float(repeats[index].sum()) / count if count else 0.0

    pure_calls = name == ids["concurrence.concurrence_pure"]
    from_mixed = pure_calls & nested
    from_mixed[from_mixed] = name[parent[from_mixed]] == ids["concurrence.concurrence_mixed"]
    out["concurrence.mixed.shortcut_frac"] = (
        float(from_mixed.sum()) / int(pure_calls.sum()) if pure_calls.any() else 0.0
    )
    out["analysis.rows"] = meta["rows"]
    out["import.numpy_s"] = meta["import_numpy_s"]
    out["import.wteleport_s"] = meta["import_wteleport_s"]
    out["trace.spans"] = len(name)
    out["cli.output_bytes"] = output.stat().st_size
    return out


def run_traced(runner: Runner, workload: Workload, seconds: float) -> tuple[dict, list[str]]:
    untraced: list[Child] = []
    traced: list[Child] = []
    layers: list[dict[str, float]] = []

    def pair() -> None:
        untraced.append(runner.invoke(workload))
        spans = runner.tmp / f"spans-{len(traced)}.npz"
        traced.append(runner.invoke(workload, spans=spans, invocation=len(traced)))
        if spans.exists():
            layers.append(layer_metrics(spans, runner.tmp / f"output.{workload.fmt}"))
            spans.unlink()

    closed_loop(pair, seconds, 1, runner.deadline)
    if not layers:
        raise SystemExit("error: no traced invocation left its spans")
    units = layer_units()
    exact = [name for name, unit in units.items() if unit in EXACT_UNITS]
    notes = []
    for name in exact:
        seen = {layer[name] for layer in layers}
        if len(seen) > 1:
            notes.append(f"warning: {name} differs between traced invocations: {sorted(seen)}")
    overhead = statistics.median(c.wall_s for c in traced) - statistics.median(
        c.wall_s for c in untraced
    )
    # Exact values repeat (checked above), so the first invocation's stand for all.
    values = {
        name: layers[0][name] if name in exact else statistics.median(x[name] for x in layers)
        for name in units
        if name not in ("trace.overhead_s", "process.cpu_s")
    }
    values["trace.overhead_s"] = overhead
    values["process.cpu_s"] = statistics.median(c.cpu_s for c in untraced)
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    notes += [
        f"{len(traced)} traced and {len(untraced)} untraced invocations; "
        f"times are medians, counts are per invocation"
    ] + [f"{name:34s} {_show(m['value'])} {m['unit']}" for name, m in metrics.items()]
    return metrics, notes


def provenance(workload: Workload, seed: int) -> dict:
    init = (ROOT / "src" / "wteleport" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'__version__\s*=\s*"([^"]+)"', init)
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "workload": workload.name,
        "seed": seed,
        "cli_args": list(workload.cli_args),
        "points": workload.points,
        "package": version.group(1) if version else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tmp: Path
) -> tuple[Runner, dict]:
    workload = make_workload(name, seed)
    runner = Runner(tmp, time.monotonic() + RUN_DEADLINE_S)
    print(f"# {name}  provenance {json.dumps(provenance(workload, seed))}")
    runner.invoke(make_workload(name, seed, warmup=True))  # untimed: bytecode and file caches
    measure = run_traced if trace else run_untraced
    metrics, notes = measure(runner, workload, seconds)
    notes.append(
        f"failed_frac  {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} of {runner.attempted} invocations, probes and warm-up included)"
    )
    for line in notes + [f"problem: {p}" for p in runner.problems]:
        print(f"# {name}  {line}")
    return runner, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wteleport" / "cli.py").is_file():
        print(f"error: no wteleport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics: dict[str, dict] = {}
        for name in names:
            runner, found = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
            attempted += runner.attempted
            failed += runner.failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in found.items()})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
