#!/usr/bin/env python3
"""Benchmark of the trideal command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record    # re-record perfbench/expected.json

With ``--trace 0`` every command runs in a fresh interpreter, as users run
the CLI, and the end-to-end metrics are reported.  With ``--trace 1`` the
same commands run in-process through ``trideal.cli.main``, alternating
untraced and traced passes, and the per-layer metrics are reported.  The
last line of stdout is the result; the line before it is a report with the
run environment, per-command-group timings and any failures.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Cold starts (interpreter plus ``import trideal.cli``) timed before each pass.
SETUP_STARTS_PER_PASS = 3
#: Wall-clock budget of one run, below the 180 s every run must end within.
RUN_LIMIT_S = 170.0

#: Size of ``reference_work``, and the seconds it takes at the reference speed,
#: which is about its speed on a quiet 2.0 GHz Xeon virtual machine, CPython 3.11.
REFERENCE_LOOPS = 36_000
REFERENCE_MASK = (1 << 200) - 1
REFERENCE_S = 0.010

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "enumeration.self_s": "s", "enumeration.passes": "count", "enumeration.deals": "count",
    "enumeration.deals_per_s": "1/s",
    "model.self_s": "s", "model.calls": "count", "model.calls_per_s": "1/s",
    "bijections.self_s": "s", "bijections.params": "count", "bijections.codec_calls": "count",
    "bijections.codec_per_s": "1/s",
    "counting.self_s": "s", "counting.calls": "count", "counting.max_digits": "digits",
    "laurent.self_s": "s", "laurent.muls": "count", "laurent.terms_out": "count",
    "laurent.max_terms": "count", "laurent.terms_per_s": "1/s",
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def reference_work() -> int:
    """Fixed pure-Python work of the kinds trideal does: dict updates and big-integer arithmetic."""
    table: dict[int, int] = {}
    x = 1
    for i in range(REFERENCE_LOOPS):
        key = i % 769
        table[key] = table.get(key, 0) + i
        x = (x * 7 + i) & REFERENCE_MASK
    return x + len(table)


def reference_time() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Gate:
    """Checks every command's output and counts attempts and failures."""

    def __init__(self, commands: list[workloads.Command], expected: dict) -> None:
        self.commands = commands
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, cmd: workloads.Command, code: int | None, out: bytes) -> None:
        self.attempted += 1
        want = self.expected.get(cmd.key)
        if want is None:
            problem = "no recorded digest"
        elif code != want["exit"]:
            problem = f"exit code {code}"
        elif hashlib.sha256(out).hexdigest() != want["sha256"]:
            problem = "stdout digest differs from the recorded one"
        else:
            problem = cmd.check(out.decode())
        if problem:
            self.failed += 1
            self.problems.append(f"{cmd.key}: {problem}")


def child_env() -> dict[str, str]:
    # A fixed hash seed: string hashes set the layout of every set of cards.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Child(NamedTuple):
    wall: float
    cpu: float
    rss_kb: int
    code: int
    stdout: bytes


def spawn(args: list[str], env: dict[str, str], timeout: float) -> Child:
    """Run ``python args`` and time it to its exit; kill it after ``timeout`` seconds.

    ``os.wait4`` blocks until the exit and returns the child's own CPU time
    and peak memory.  ``subprocess`` waits with a timeout by polling, with
    sleeps of up to 50 ms, which would show in a 60 ms cold start.
    """
    with tempfile.TemporaryFile(dir=HERE) as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(max(timeout, 0.0), _kill, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                     out.read())


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run_inprocess(argv) -> tuple[float, int | None, bytes]:
    """Run one CLI command through ``trideal.cli.main``: (wall s, exit code, stdout)."""
    cli = sys.modules["trideal.cli"]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return time.perf_counter() - start, code, buf.getvalue().encode()


def summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it, the count and the samples."""
    out = {"n": len(samples), "median": statistics.median(samples), "samples": samples}
    if len(samples) > 10:
        p = 100 * (len(samples) - 10) // len(samples)
        out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return out


def untraced(gate: Gate, seconds: int, report: dict) -> dict[str, float]:
    """End-to-end metrics: each command in a fresh interpreter, passes until time is up.

    On the 2-CPU virtual machine the benchmark was built on, the same work
    took up to 1.7 times as long from one minute to the next, for all work
    alike.  So ``reference_work`` is timed between every two timed steps,
    and every time reported is scaled by REFERENCE_S over the run's mean
    reference time.  That cut the spread of ``wall_s`` over five runs from
    0.37 to 0.07 of its median.  The unscaled medians are in the report.
    """
    hard_stop = time.perf_counter() + RUN_LIMIT_S
    env = child_env()

    def cold_start() -> float:
        child = spawn(["-c", "import trideal.cli"], env, hard_stop - time.perf_counter())
        if child.code != 0:
            raise SystemExit(f"import trideal.cli failed with exit code {child.code}")
        return child.wall

    cold_start()  # writes the .pyc files an installed package would already have
    deadline = time.perf_counter() + seconds
    probes = [reference_time()]
    setup, walls, cpus, rss_kb = [], [], [], [0]
    groups: dict[str, list[float]] = {cmd.group: [] for cmd in gate.commands}
    while True:
        for _ in range(SETUP_STARTS_PER_PASS):
            setup.append(cold_start())
            probes.append(reference_time())
        group_s = dict.fromkeys(groups, 0.0)
        cpu_s = 0.0
        for cmd in gate.commands:
            child = spawn(["-m", "trideal", *cmd.argv], env, hard_stop - time.perf_counter())
            probes.append(reference_time())
            gate.judge(cmd, child.code, child.stdout)
            if time.perf_counter() >= hard_stop:
                gate.problems.append("run time limit reached; stopped")
                break
            group_s[cmd.group] += child.wall
            cpu_s += child.cpu
            rss_kb.append(child.rss_kb)
        else:
            walls.append(sum(group_s.values()))
            cpus.append(cpu_s)
            for group, value in group_s.items():
                groups[group].append(value)
            if time.perf_counter() < deadline:
                continue
        break
    if not walls:
        raise SystemExit("no pass completed within the run time limit")
    scale = REFERENCE_S / statistics.fmean(probes)
    report["scale"] = scale
    report["unscaled"] = {
        "wall_s": summary(walls), "cpu_s": summary(cpus), "setup_s": summary(setup),
        "groups": {f"{group}_s": summary(values) for group, values in groups.items()},
        "reference_work_s": summary(probes),
    }
    return {
        "wall_s": statistics.median(walls) * scale,
        "cpu_s": statistics.median(cpus) * scale,
        "setup_s": statistics.median(setup) * scale,
        "peak_rss_mb": max(rss_kb) / 1024,
    }


def traced(gate: Gate, seconds: int, report: dict) -> dict[str, float]:
    """Per-layer metrics: in-process passes, alternately untraced and traced."""
    sys.path.insert(0, str(SRC))
    importlib.import_module("trideal.cli")
    deadline = time.perf_counter() + seconds
    plain_walls, traced_walls, counts = [], [], []
    self_s: dict[str, list[float]] = {layer: [] for layer in tracing.ALL_LAYERS}

    def one_pass() -> tuple[float, int]:
        wall = out_bytes = 0
        for cmd in gate.commands:
            seconds_taken, code, out = run_inprocess(cmd.argv)
            gate.judge(cmd, code, out)
            wall += seconds_taken
            out_bytes += len(out)
        return wall, out_bytes

    while True:
        plain_walls.append(one_pass()[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, out_bytes = one_pass()
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        counts.append({**tracer.metrics(), "cli.out_bytes": out_bytes})
        for layer, value in tracer.self_s.items():
            self_s[layer].append(value)
        if time.perf_counter() >= deadline:
            break
    report["samples"] = {"untraced_wall_s": summary(plain_walls),
                         "traced_wall_s": summary(traced_walls),
                         "counts_repeat": all(c == counts[0] for c in counts)}
    m = {f"{layer}.self_s": statistics.median(values) for layer, values in self_s.items()}
    m.update(counts[0])

    def rate(count: str, layer: str) -> float:
        return m[count] / m[f"{layer}.self_s"] if m[f"{layer}.self_s"] else 0.0

    m["enumeration.deals_per_s"] = rate("enumeration.deals", "enumeration")
    m["model.calls_per_s"] = rate("model.calls", "model")
    m["bijections.codec_per_s"] = rate("bijections.codec_calls", "bijections")
    m["laurent.terms_per_s"] = rate("laurent.terms_out", "laurent")
    m["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    return {name: m[name] for name in LAYER_UNITS}


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "commit": commit,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str = "full",
            expected: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result line, report)."""
    if expected is None:
        expected = json.loads(EXPECTED.read_text())
    gate = Gate(workloads.commands(workload, seed, size), expected)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "commands": [cmd.key for cmd in gate.commands],
              "env": environment()}
    load_before = os.getloadavg()
    metrics = (traced if trace else untraced)(gate, seconds, report)
    report["env"]["loadavg_before"] = load_before
    report["env"]["loadavg_after"] = os.getloadavg()
    report["failed_frac"] = gate.failed / gate.attempted
    report["problems"] = gate.problems[:20]
    units = LAYER_UNITS if trace else E2E_UNITS
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def record() -> int:
    """Run every command once, check it independently, and write its stdout digest."""
    env = child_env()
    digests = {}
    for cmd in workloads.all_commands():
        child = spawn(["-m", "trideal", *cmd.argv], env, 600)
        problem = f"exit code {child.code}" if child.code else cmd.check(child.stdout.decode())
        if problem:
            print(f"{cmd.key}: {problem}", file=sys.stderr)
            return 1
        digests[cmd.key] = {"exit": 0, "sha256": hashlib.sha256(child.stdout).hexdigest()}
    EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} commands in {EXPECTED.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected.json")
    args = parser.parse_args(argv)
    if not (SRC / "trideal" / "cli.py").is_file():
        print(f"error: no trideal sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    # One CPU for the benchmark and its children: unpinned, whole runs of
    # cold starts came out 1.8 times as slow on a 2-CPU virtual machine.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
