"""Run one benchmark workload against lict and print its metrics.

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 25 --trace 0

Run from the root of a lict checkout; lict is imported from ``src/``.  Each
operation is the argument list a user would type, run through
``lict.cli.main`` in this process with stdout captured, then checked against
a known answer.  Passes over the workload's operation shapes repeat until
``--seconds`` have gone by; every pass is whole.

Times are in ``ref``: the duration of a fixed pure-Python computation
(``reference_seconds``), measured right before each operation, so that
drift in the speed of a shared host cancels out.  An operation is divided
by its own reference; a pass, which takes seconds, by the median of the
references taken during it.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  With ``--trace 0``
the metrics are end to end; with ``--trace 1`` the functions of each lict
module are wrapped from outside and the metrics are per layer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 9
# Every run makes at least this many passes, and peak_rss_mb is the peak
# over exactly these first passes: the program's caches grow with every
# pass, so a peak over all of a run's passes would grow with its speed.
RSS_PASSES = 4
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import lict.cli\n"
    "lict.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)

# The reference computation defines the unit ``ref``.  Changing it changes
# the unit, so it never changes.  One timing takes 6 to 9 ms on a 2-core
# x86 host, long enough to smooth scheduler jitter.  Keys repeat every
# 2695 steps (385 frozensets times 7), so the table stays under 1 MB and
# adds little to peak_rss_mb.
REF_STEPS = 6000


def reference_work() -> int:
    table: dict = {}
    for i in range(REF_STEPS):
        key = (i % 2695, frozenset((i % 5, i % 7, i % 11)), "ref")
        table[key] = table.get(key, 0) + hash((key, i))
    return len(table)


def reference_seconds() -> float:
    """One timing of the reference, with the collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def measure_setup() -> float:
    """Median time to import lict and build the CLI parser, in fresh processes."""
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if attempt:  # the first one warms the file cache (and bytecode cache, if written)
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


class Harness:
    """Runs operations in a scratch directory and keeps their figures."""

    def __init__(self, workload: str, seed: int, tracer=None):
        import lict.cli

        self.main = lict.cli.main
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.work = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised
        self.mismatches: list[str] = []  # outputs that disagree with the known answer
        self.passes: list[dict] = []
        self.peak_rss_mb = 0.0

    def _write(self, files: dict) -> None:
        for name, text in files.items():
            (self.work / name).write_text(text, encoding="ascii")

    def _invoke(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if self.tracer is None:
                code = self.main(argv)
            else:
                code = self.tracer.call(self.main, argv)
        return code, out.getvalue()

    def verify(self, argv, files):
        """Run a checking command, untimed and untraced."""
        self._write(files)
        tracer, self.tracer = self.tracer, None
        if tracer is not None:
            tracer.uninstall()
        try:
            return self._invoke(argv)
        finally:
            if tracer is not None:
                tracer.install()
            self.tracer = tracer

    def run_pass(self, index: int) -> None:
        ops = workloads.build(self.workload, self.seed, index)
        figures = {"refs": [], "op_seconds": [], "out_bytes": 0, "layer_seconds": {}, "counts": {}}
        for op in ops:
            self._write(op.files)
            self.attempted += 1
            # A user's lict process starts without garbage; so does each
            # operation here, rather than paying for its predecessors'.
            gc.collect()
            ref = reference_seconds()
            start = time.perf_counter()
            try:
                code, out = self._invoke(op.argv)
            except Exception:
                self.failed += 1
                self.errors.append(f"{op.shape}: {traceback.format_exc(limit=3)}")
                if self.tracer is not None:
                    self.tracer.collect()
                continue
            elapsed = time.perf_counter() - start
            figures["refs"].append(ref)
            figures["op_seconds"].append(elapsed)
            figures["out_bytes"] += len(out.encode("ascii"))
            if self.tracer is not None:
                self_time, counts = self.tracer.collect()
                for layer, seconds in self_time.items():
                    key = f"{layer}_ref"
                    figures["layer_seconds"][key] = figures["layer_seconds"].get(key, 0.0) + seconds
                for name, value in counts.items():
                    figures["counts"][name] = figures["counts"].get(name, 0) + value
            try:
                op.verdict = op.check(code, out, self.verify)
            except (workloads.CheckFailed, ValueError, IndexError, KeyError) as exc:
                self.mismatches.append(f"{op.shape}: {exc!r}")
        try:
            workloads.check_pass(ops)
        except workloads.CheckFailed as exc:
            self.mismatches.append(str(exc))
        self.passes.append(figures)
        if len(self.passes) == RSS_PASSES:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(harness: Harness, setup_s: float) -> dict:
    op_refs = [t / r for p in harness.passes for t, r in zip(p["op_seconds"], p["refs"])]
    pass_refs = [sum(p["op_seconds"]) / _median(p["refs"]) for p in harness.passes]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (_median(op_refs), "ref"),
        "pass_ref": (_median(pass_refs), "ref"),
        "peak_rss_mb": (harness.peak_rss_mb, "MB"),
        "output_kb": (_median([p["out_bytes"] for p in harness.passes]) / 1024, "KB"),
    }


def per_layer(harness: Harness) -> dict:
    import tracing

    metrics = {}
    for name in tracing.metric_names():
        if name.endswith("_ref"):
            values = [p["layer_seconds"].get(name, 0.0) / _median(p["refs"]) for p in harness.passes]
            metrics[name] = (_median(values), "ref")
        else:
            values = [p["counts"].get(name, 0) for p in harness.passes]
            metrics[name] = (_median(values), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lict" / "__init__.py").is_file():
        print(f"lict sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        setup_s = measure_setup()
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"cannot import lict in a fresh process: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    harness = Harness(args.workload, args.seed, tracer)
    old_cwd = os.getcwd()
    os.chdir(harness.work)
    try:
        started = time.perf_counter()
        while len(harness.passes) < RSS_PASSES or time.perf_counter() - started < args.seconds:
            harness.run_pass(len(harness.passes))
    finally:
        os.chdir(old_cwd)
        harness.close()
        if tracer is not None:
            tracer.uninstall()

    e2e = end_to_end(harness, setup_s)
    metrics = per_layer(harness) if args.trace else e2e
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(harness.passes)} "
          f"attempted={harness.attempted} failed={harness.failed}")
    if args.trace:
        print(f"traced pass_ref={e2e['pass_ref'][0]:.2f} ref (compare an untraced run for the overhead)")
    raw_ref_ms = 1000 * _median([r for p in harness.passes for r in p["refs"]])
    raw_pass_s = _median([sum(p["op_seconds"]) for p in harness.passes])
    print(f"one ref = {raw_ref_ms:.3f} ms here; a pass takes {raw_pass_s:.3f} s of operations")
    for error in harness.errors[:5]:
        print(f"FAILED {error}")
    for mismatch in harness.mismatches[:10]:
        print(f"WRONG OUTPUT {mismatch}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not harness.mismatches,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
