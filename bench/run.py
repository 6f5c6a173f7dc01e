"""Benchmark of the curvefold pipeline: one workload per run, every output checked.

    python3 bench/run.py --workload curve-pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload long-words --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

A run runs whole rounds of the workload's operations until ``--seconds``
have passed, checking each output outside the timed region, and measures
set-up in fresh interpreters started between operations, spread evenly
over the run.  Untraced times are reported at reference speed (see
``reference.py``).  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each operation also runs
a second time with spans on, the per-layer metrics are printed, and the
spans are written to ``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
START_REPEATS = 5

if not (ROOT / "src" / "curvefold").is_dir():
    sys.exit(f"curvefold sources not found under {ROOT / 'src'}")

import inputs  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402
from checkers import CheckFailed  # noqa: E402


class SetupProbe:
    """Times fresh interpreters importing curvefold and preparing the first
    round's inputs.  Probe k runs once k/SETUP_REPEATS of the run has
    passed, so that the median spans the whole run rather than the
    machine's speed in its first seconds."""

    def __init__(self, workload: str, first_round: list, seconds: float, speed: reference.Speed):
        self.workload = workload
        self.payload = json.dumps(first_round)
        self.seconds = seconds
        self.speed = speed
        self.times: list[float] = []
        self.samples: list[int] = []    # the kernel sample taken before each probe

    def _probe(self) -> None:
        self.samples.append(self.speed.sample())
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), self.workload],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        proc.stdin.write(self.payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        self.times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or line != "ready\n":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")

    def due(self, elapsed: float) -> None:
        while (len(self.times) < SETUP_REPEATS
               and elapsed >= len(self.times) * self.seconds / SETUP_REPEATS):
            self._probe()

    def median(self, scaled: bool = True) -> float:
        """The median over all probes, at reference speed unless ``scaled``
        is false; probes the run did not reach run now."""
        while len(self.times) < SETUP_REPEATS:
            self._probe()
        if not scaled:
            return statistics.median(self.times)
        return statistics.median(self.speed.scale(t, i) for t, i in zip(self.times, self.samples))


def interpreter_start(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = workloads.cli_env()
    times = []
    for _ in range(START_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_in_process(item: dict, path: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            probe.cli.main.main(args=workloads.cli_args(item, path), prog_name="curvefold",
                                standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return code, buf.getvalue()


class Runner:
    """Runs rounds of one workload and keeps counts, times and spans."""

    def __init__(self, workload: str, traced: bool, workdir: Path, setup: SetupProbe | None):
        self.workload = workload
        self.workdir = workdir
        self.setup = setup
        self.speed = setup.speed if setup else None
        self.sample = 0                       # the latest kernel sample
        self.start = time.perf_counter()
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []     # outputs that failed a check
        self.times: list[float] = []          # untraced operations
        self.samples: list[int] = []          # the kernel sample before each of them
        self.traced_times: list[float] = []   # the same operations with spans on
        self.inprocess_times: list[float] = []
        self.command_times: dict[str, list[float]] = {c: [] for c in inputs.CLI_COMMANDS}
        self.tracer = trace.Tracer(workloads.MODULES) if traced else None
        self.env = workloads.cli_env()

    def _check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.mismatches.append(f"{self.workload}: {exc}")

    def _between(self) -> None:
        """Between operations: time the reference kernel and run the set-up
        probes that are due."""
        if self.speed:
            self.sample = self.speed.sample()
        if self.setup:
            self.setup.due(time.perf_counter() - self.start)

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"{self.workload}: {what} failed\n{traceback.format_exc()}", file=sys.stderr)

    def _order(self, k: int) -> tuple[bool, ...]:
        """Untraced and traced copies of operation k, the first alternating so
        that neither copy always runs second, on a warmer heap."""
        if not self.tracer:
            return (False,)
        return (False, True) if k % 2 == 0 else (True, False)

    def run_round(self, r: int, items: list, seed: int) -> None:
        if self.workload == "cli-mix":
            self._cli_round(r, items)
            return
        op, check = workloads.LIBRARY[self.workload]
        for k, item in enumerate(items):
            self._between()
            obj = probe.prepare(self.workload, item)
            self.attempted += 1
            try:
                for traced in self._order(k):
                    start = time.perf_counter()
                    out = self.tracer.operation((r, k), op, obj, item) if traced else op(obj, item)
                    (self.traced_times if traced else self.times).append(time.perf_counter() - start)
                    if not traced:
                        self.samples.append(self.sample)
                    self._check(check, obj, item, out)
            except Exception:       # a failing operation is counted, the run goes on
                self._fail(f"operation {r}.{k}")
        if self.workload == "long-words":
            for item in inputs.small_words(seed, r):
                self._check(workloads.small_word_check, item)

    def _cli_round(self, r: int, items: list) -> None:
        checker = workloads.CliChecker()
        traced_checker = workloads.CliChecker()
        for k, item in enumerate(items):
            path = self.workdir / f"{item['curve']}.json"
            path.write_text(item["json"])
            self._between()
            self.attempted += 1
            start = time.perf_counter()
            code, out = workloads.cli_op(item, str(path), self.env)
            elapsed = time.perf_counter() - start
            if code != 0:
                self._fail(f"{item['command']} on {item['curve']} (exit code {code})")
                continue
            self.times.append(elapsed)
            self.samples.append(self.sample)
            self.command_times[item["command"]].append(elapsed)
            self._check(checker, item, code, out)
            if not self.tracer:
                continue
            # the commands again in this process through click, to trace them
            for traced in self._order(k):
                start = time.perf_counter()
                if traced:
                    code, out = self.tracer.operation((r, k), cli_in_process, item, str(path))
                    self.traced_times.append(time.perf_counter() - start)
                    self._check(traced_checker, item, code, out)
                else:
                    cli_in_process(item, str(path))
                    self.inprocess_times.append(time.perf_counter() - start)

    def end_to_end(self, scaled: bool = True) -> dict:
        """The end-to-end metrics, times at reference speed unless ``scaled``
        is false."""
        times = self.times
        if scaled:
            times = [self.speed.scale(t, i) for t, i in zip(self.times, self.samples)]
        who = resource.RUSAGE_CHILDREN if self.workload == "cli-mix" else resource.RUSAGE_SELF
        return {
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "setup_s": (self.setup.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        ops = len(self.traced_times)
        table = trace.layer_table(self.tracer.spans, ops)
        for command, times in self.command_times.items():
            table[f"cli.{command}_p50_s"] = statistics.median(times) if times else 0.0
        table["cli.import_s"] = interpreter_start("import curvefold.cli")
        table["cli.bare_start_s"] = interpreter_start("pass")
        untraced = self.inprocess_times if self.workload == "cli-mix" else self.times
        table["trace.ops_per_s"] = ops / sum(self.traced_times)
        table["trace.overhead"] = sum(self.traced_times) / sum(untraced) - 1
        return {name: (table[name], unit) for name, (unit, _) in trace.PER_LAYER.items()}


def run(workload: str, seed: int, seconds: float, traced: bool, limit: int | None = None) -> dict:
    """One benchmark run; ``limit`` cuts the run to the first operations of
    the first round (smoke mode)."""
    make_round = inputs.ROUNDS[workload]
    first = make_round(seed, 0)[:limit]
    setup = None if traced else SetupProbe(workload, first, seconds, reference.Speed())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{int(time.time() * 1e6)}"
    workdir.mkdir()
    runner = Runner(workload, traced, workdir, setup)
    try:
        start = runner.start
        r = 0
        # whole rounds only; another round starts while that ends the run
        # nearer to ``seconds`` than stopping now would
        while r == 0 or (limit is None and
                         (time.perf_counter() - start) * (1 + 0.5 / r) < seconds):
            runner.run_round(r, first if r == 0 else make_round(seed, r), seed)
            r += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for mismatch in runner.mismatches:
        print(mismatch, file=sys.stderr)
    metrics = runner.per_layer() if traced else runner.end_to_end()
    result = {
        "correct": not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    name = f"{'trace' if traced else 'result'}-{workload}-{seed}.json"
    doc = dict(result, workload=workload, seed=seed, rounds=r)
    if traced:
        doc["spans"] = runner.tracer.spans
    else:
        doc["wall"] = {name: value for name, (value, _) in runner.end_to_end(scaled=False).items()}
        doc["kernel_times"] = runner.speed.kernel_times
    (OUT / name).write_text(json.dumps(doc))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.ROUNDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run two checked operations of every workload, untraced and traced")
    args = parser.parse_args()
    if args.smoke:
        ok = True
        for workload in inputs.ROUNDS:
            for traced in (False, True):
                result = run(workload, args.seed, 0, traced, limit=2)
                ok = ok and result["correct"] and result["failed"] == 0
                print(f"smoke {workload} trace={int(traced)}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        for name, entry in result["metrics"].items():
            print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
