"""The repository benchmark: cold-process ``repro run`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

``--trace 0`` is a closed loop with one run in flight: each run is a fresh
``python3`` process that imports ``repro``, loads the generated spec
document and times one untraced ``repro.run(spec)``.  Runs are started
while they are expected to end within ``--seconds``; then set-up-only
processes are started until :data:`SETUP_SAMPLES` set-up times exist.  The
end-to-end metrics are medians over the runs.  Both times are rescaled to a
fixed host speed, measured by a reference kernel timed in the same process
just before and after the run (see :func:`child.reference_seconds`).

``--trace 1`` makes one untraced run and one traced replay (see
:mod:`replay`) in fresh processes, checks that the replay reproduces the
run's seed sets, and reports the per-layer metrics.

Every run is checked off the clock by :mod:`checks`.  A report of every
metric goes to standard output; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import HELD_OUT_SEED, LAYER_MAP, WORKLOADS, spec_document

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Declares the workloads, their rationale, and every metric's name, unit
#: and direction; the report follows it.
DECLARATION = ROOT / "BENCHMARK.json"

#: Per-run working directories live here, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-up times measured per ``--trace 0`` invocation (the median is reported).
SETUP_SAMPLES = 5

#: Seconds the reference kernel takes at the speed times are rescaled to:
#: its fastest time on a 2-vCPU Xeon VM with Python 3.11 and numpy 2.4.
#: A time ``t`` measured next to a reference time ``r`` is reported as
#: ``t * REFERENCE_S / r``.
REFERENCE_S = 0.115

#: Wall-clock budget of one invocation; the contract's limit is 180 s.
DEADLINE_S = 170.0

#: Shares of wall time a traced replay may leave outside every span.
MAX_UNATTRIBUTED = 0.05

#: Environment variables that would change the program's behaviour behind
#: the spec's back; batch mode must come from the spec alone.
SCRUBBED_ENV = ("REPRO_BITPARALLEL", "REPRO_TRACE")

class Bench:
    """One invocation: launches child processes and checks what they report."""

    def __init__(self, workload: str, seed: int) -> None:
        self.document = spec_document(workload, seed)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.raw_setup_s: list[float] = []
        SCRATCH.mkdir(exist_ok=True)
        self._tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
        self._evaluator = None

    def close(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    def fail(self, *problems: str) -> None:
        """Count one failed run and keep its problems for the report."""
        self.failed += 1
        self.failures.extend(problems)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, mode: str) -> dict | None:
        """Run ``child.py`` in ``mode`` in a fresh process and a fresh directory.

        Returns the child's record, or ``None`` when it crashed or ran out of
        time.  The problem is kept in ``failures``, which makes the
        invocation incorrect; only the caller knows whether it was a run,
        which counts in ``failed``, or a set-up-only process, which does not.
        """
        run_dir = Path(tempfile.mkdtemp(dir=self._tmp))
        spec_path = run_dir / "spec.json"
        out_path = run_dir / "out.json"
        spec_path.write_text(json.dumps(self.document), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
        env["TMPDIR"] = str(run_dir)
        try:
            with open(run_dir / "stderr.txt", "wb") as stderr:
                launched = time.monotonic()
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "child.py"), mode, str(spec_path),
                     str(out_path)],
                    cwd=run_dir, env=env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True,
                )
                try:
                    code = proc.wait(timeout=max(1.0, self.remaining()))
                except subprocess.TimeoutExpired:
                    code = None
                finally:
                    # The process group also holds any pool workers it left.
                    with contextlib.suppress(ProcessLookupError, PermissionError):
                        os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            if code != 0:
                tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
                self.failures.append(f"{mode} process timed out" if code is None
                                     else f"{mode} process exited {code}:\n{tail}")
                return None
            record = json.loads(out_path.read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if "reference_s" in record:
            record["scale"] = REFERENCE_S / statistics.mean(record["reference_s"])
            self.setup_s.append((record["loaded_at"] - launched) * record["scale"])
            self.raw_setup_s.append(record["loaded_at"] - launched)
        return record

    def check(self, trials) -> float | None:
        """Check a run's trials; return the quality figure, or None on failure."""
        from checks import SpreadEvaluator, check_outcome

        if self._evaluator is None:
            from repro.api.specs import spec_from_dict

            graph = spec_from_dict(self.document).graph.resolve()
            self._evaluator = SpreadEvaluator.for_graph(graph)
        problems, quality = check_outcome(
            [tuple(t) for t in trials],
            evaluator=self._evaluator,
            k=self.document["k"],
            pool_size=self.document["pool_size"],
            sweep=self.document["kind"] == "sweep",
        )
        if problems:
            self.fail(*problems)
            return None
        return quality

    def timed_runs(self, seconds: float) -> dict[str, list[float]]:
        """Closed loop of untraced runs, for about ``seconds`` in all."""
        samples: dict[str, list[float]] = {"run_s": [], "raw_run_s": [], "scale": [],
                                           "peak_rss_mb": [], "quality_spread": [],
                                           "walls": []}
        began = time.monotonic()
        # Start another run only while even the slowest so far would end
        # within the budget, so an invocation does not overrun ``seconds``.
        while not samples["walls"] or (
            time.monotonic() - began + max(samples["walls"]) <= seconds
            and self.remaining() > 1.5 * max(samples["walls"])
        ):
            self.attempted += 1
            start = time.monotonic()
            record = self.child("run")
            samples["walls"].append(time.monotonic() - start)
            if record is None:
                self.failed += 1
                continue
            quality = self.check(record["trials"])
            if quality is None:
                continue
            samples["run_s"].append(record["run_s"] * record["scale"])
            samples["raw_run_s"].append(record["run_s"])
            samples["scale"].append(record["scale"])
            samples["peak_rss_mb"].append(record["peak_rss_mb"])
            samples["quality_spread"].append(quality)
            samples.setdefault("trials", record["trials"])
        return samples

    def traced(self, reference: dict[str, list]) -> tuple[dict, list] | None:
        """One traced replay, checked against the untraced run's trials."""
        self.attempted += 1
        record = self.child("trace")
        if record is None:
            self.failed += 1
            return None
        metrics = record["metrics"]
        if "trials" not in reference:
            # The untraced run failed; check the replay on its own.
            if self.check(record["trials"]) is None:
                return None
        elif record["trials"] != reference["trials"]:
            self.fail("the traced replay's seed sets differ from repro.run's")
            return None
        if metrics["trace.unattributed_share"] >= MAX_UNATTRIBUTED:
            self.fail(
                f"the traced replay left {metrics['trace.unattributed_share']:.1%} "
                "of its wall time outside every span"
            )
        if reference["raw_run_s"]:
            metrics["trace.overhead_ratio"] = (
                metrics["trace.wall_s"] / statistics.median(reference["raw_run_s"])
            )
        return metrics, record["spans"]


def summarize(values: list[float]) -> tuple[float, float, float, int]:
    """``(median, first quartile, third quartile, count)`` of ``values``."""
    if not values:
        return 0.0, 0.0, 0.0, 0
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def _report_header(args, why: str) -> None:
    from repro.diffusion.bitparallel import HAVE_BITWISE_COUNT
    from repro.obs.trace import host_info

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} (held-out seed {HELD_OUT_SEED})")
    print(f"  why: {why}")
    print(f"  spec: {json.dumps(spec_document(args.workload, args.seed), sort_keys=True)}")
    print(f"  host: {json.dumps(host_info(), sort_keys=True)}")
    print(f"  popcount: {'numpy.bitwise_count' if HAVE_BITWISE_COUNT else '16-bit lookup table'}")


def _report_table(rows) -> None:
    print(f"  {'metric':<32} {'unit':<11} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for name, unit, values in rows:
        median, q1, q3, count = summarize(values)
        print(f"  {name:<32} {unit:<11} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {count:>3}")


def _report_spans(spans) -> None:
    print("  spans (seconds, calls, self seconds):")
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def walk(parent, depth):
        for span in children.get(parent, []):
            inner = sum(c["seconds"] for c in children.get(span["name"], []))
            print(f"    {'  ' * depth}{span['name']:<{36 - 2 * depth}} "
                  f"{span['seconds']:>10.4f} {span['count']:>7} "
                  f"{span['seconds'] - inner:>10.4f}")
            walk(span["name"], depth + 1)

    walk(None, 0)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its child processes: the ``finally``
    # blocks that kill them run on SystemExit.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    sys.path.insert(0, str(SRC))
    _report_header(args, why[args.workload])

    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            reference = bench.timed_runs(0.0)
            traced = bench.traced(reference)
        else:
            samples = bench.timed_runs(args.seconds)
            while len(bench.setup_s) < SETUP_SAMPLES and bench.remaining() > 10:
                bench.child("setup")
    finally:
        bench.close()

    metrics: dict[str, dict] = {}
    if args.trace:
        values = traced[0] if traced else {}
        rows = [(m["name"], m["unit"], [values[m["name"]]] if m["name"] in values else [])
                for m in declared["per_layer"]]
        _report_table(rows)
        if traced:
            _report_spans(traced[1])
        for name, unit, measured in rows:
            metrics[name] = {"value": measured[0] if measured else 0.0, "unit": unit}
    else:
        success = [(bench.attempted - bench.failed) / bench.attempted]
        samples["setup_s"] = bench.setup_s
        samples["success_rate"] = success
        rows = [(m["name"], m["unit"], samples[m["name"]]) for m in declared["end_to_end"]]
        _report_table(rows)
        print(f"  error_rate: {1.0 - success[0]:.6g} over {bench.attempted} attempted")
        print("  unscaled, and the factor times were scaled by:")
        _report_table([("run_s (wall)", "s", samples["raw_run_s"]),
                       ("setup_s (wall)", "s", bench.raw_setup_s),
                       ("scale", "ratio", samples["scale"])])
        for name, unit, values in rows:
            metrics[name] = {"value": summarize(values)[0], "unit": unit}
    print("  layer -> end-to-end metrics it should move on this workload:")
    for layer, moves in LAYER_MAP.items():
        print(f"    {layer:<32} {', '.join(moves.get(args.workload, [])) or 'no change'}")
    for failure in bench.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
