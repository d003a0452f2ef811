"""Campaign benchmark of the Bluetooth reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload formation --seed 3 --seconds 35 --trace 0

Each repetition runs the workload's campaigns once in a fresh interpreter
(``rep.py``), one after another.  ``--trace 0`` repeats until
``--seconds`` have passed (at least :data:`MIN_REPS` times), repetition
``i`` on input slot ``seed + i`` (modulo the slot count) so that a run's
median spans many inputs, and reports the medians of the end-to-end
metrics, measured with tracing off:

* ``wall_s``: seconds for the workload's ``run_experiment`` calls;
* ``setup_s``: seconds from starting the interpreter to the first trial;
* ``peak_rss_mb``: peak resident memory of the repetition's process.

``--trace 1`` runs one untraced and two traced repetitions, all on the
seed's own input slot, and reports the per-layer metrics of the first
traced one, its overhead against the untraced one and the harness
self-test.

Every repetition's result tables are checked against the digest pinned in
``pins.json`` for its input slot (made on the object kernel, so the
SoA engine is re-checked on every run).  A repetition that raises or
mismatches counts all its trials as failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Run outputs (span dumps, scratch journals); ignored by git.
OUT = os.path.join(HERE, "out")

#: Repetitions a measuring run makes even when ``--seconds`` is short.
MIN_REPS = 3
#: Largest |traced wall - sum of self times| accepted, as a share of the
#: traced wall time.
RESIDUE_SHARE = 0.01
#: Seconds one repetition may take before it is killed and failed.
REP_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, pins: dict):
        from workloads import PIN_SLOTS

        self.workload = workload
        self.seed = seed
        self.slot = seed % PIN_SLOTS
        self.pins = pins[workload.name]
        self.attempted = 0
        self.failed = 0

    def repetition(self, slot: int, spans_path: str = "-") -> dict:
        """Run one repetition on input ``slot`` in a fresh interpreter and
        check its output.  Adds ``slot``, ``setup_s`` and ``ok`` to the
        repetition's record."""
        trials = self.workload.trials()
        self.attempted += trials
        start = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "rep.py"),
                 self.workload.name, str(slot), spans_path],
                capture_output=True, text=True, timeout=REP_TIMEOUT_S)
            record = json.loads(done.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError) as error:
            raise RuntimeError(f"repetition process failed: {error!r}; "
                               f"stderr: {getattr(error, 'stderr', '')}"
                               ) from error
        if done.returncode != 0:
            raise RuntimeError(f"repetition process exited "
                               f"{done.returncode}: {done.stderr}")
        record["setup_s"] = (record["first_trial"] - start
                             if record["first_trial"] is not None else None)
        record["slot"] = slot
        record["ok"] = True
        if record["error"] is not None:
            sys.stderr.write(record["error"])
            self.fail(record, "a trial raised")
        elif record["digest"] != self.pins[str(slot)]:
            self.fail(record, f"result digest {record['digest']} != pinned "
                              f"{self.pins[str(slot)]}")
        return record

    def fail(self, record: dict, why: str) -> None:
        """Fail ``record``'s repetition: all its trials count as failed."""
        if record["ok"]:
            self.failed += self.workload.trials()
        record["ok"] = False
        print(f"OUTPUT CHECK FAILED: workload {self.workload.name} seed "
              f"{self.seed} (input slot {record['slot']}): {why}",
              file=sys.stderr)

    def report_head(self, mode: str) -> None:
        print(f"workload {self.workload.name}  seed {self.seed} (first input slot "
              f"{self.slot})  engine soa  {mode}")
        print(f"  why: {self.workload.why}")

    def report_tail(self, record: dict) -> None:
        print(f"  error_rate   {self.failed / self.attempted:.4f} "
              f"({self.failed}/{self.attempted} trials failed)")
        print(f"  digest       {record['digest']} (input slot "
              f"{record['slot']}, pinned {self.pins[str(record['slot'])]})")
        for line in record["reference"]:
            print(f"  paper ref    {line}  [informational]")

    # -- modes --------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics with tracing off."""
        self.report_head("tracing off")
        records = []
        deadline = time.monotonic() + seconds
        while len(records) < MIN_REPS or time.monotonic() < deadline:
            records.append(self.repetition(
                (self.slot + len(records)) % len(self.pins)))
        metrics = {}
        for name, unit in (("wall_s", "s"), ("setup_s", "s"),
                           ("peak_rss_mb", "MB")):
            values = [record[name] for record in records
                      if record[name] is not None]
            q1, median, q3 = quartiles(values)
            print(f"  {name:<12} median {median:.4f} {unit}  quartiles "
                  f"[{q1:.4f}, {q3:.4f}]  n={len(values)}")
            metrics[name] = {"value": median, "unit": unit}
        self.report_tail(records[-1])
        return metrics

    def trace(self) -> dict:
        """Per-layer metrics from a traced repetition, plus self-test."""
        from tracer import LAYERS

        self.report_head("traced")
        untraced = self.repetition(self.slot)
        path = os.path.join(OUT, f"spans-{self.workload.name}-"
                                 f"seed{self.seed}.jsonl")
        traced = self.repetition(self.slot, path)
        again = self.repetition(self.slot, path + ".repeat")
        os.remove(path + ".repeat")
        metrics = {name: tuple(value)
                   for name, value in traced["metrics"].items()}
        wall = traced["wall_s"]
        metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
        metrics["trace.overhead"] = (wall / untraced["wall_s"], "ratio")
        self.self_test(metrics, traced, again)

        print("  per-layer self time (s, share of traced wall):")
        for layer in LAYERS:
            own = metrics[f"self_s.{layer}"][0]
            print(f"    {layer:<12} {own:9.4f}  {own / wall:6.1%}")
        for name, (value, unit) in metrics.items():
            if not name.startswith("self_s."):
                print(f"  {name:<24} {value:.6g} {unit}")
        if self.workload.name == "dense":
            print("  note: the SoA micro-loop bypasses Channel.transmit, so "
                  "phy.tx and phy.transmit_s cover only the windows the "
                  "object kernel ran")
        self.report_tail(traced)
        print(f"  spans        {int(metrics['trace.spans'][0])} written to "
              f"{os.path.relpath(path, ROOT)}")
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}

    def self_test(self, metrics: dict, traced: dict, again: dict) -> None:
        """Residue, same-seed repeatability and seed sensitivity."""
        residue = metrics["trace.residue_s"][0]
        problems = []
        if abs(residue) > RESIDUE_SHARE * traced["wall_s"]:
            problems.append(f"layer self times miss the traced wall by "
                            f"{residue:.4f} s")
        if traced["digest"] != again["digest"]:
            problems.append(f"digests differ at one seed: "
                            f"{traced['digest']} / {again['digest']}")
        if traced["counts"] != again["counts"]:
            problems.append("two traced runs at one seed counted different "
                            "work")
        others = [pinned for slot, pinned in self.pins.items()
                  if slot != str(self.slot)]
        differing = sum(pinned != traced["digest"] for pinned in others)
        if not differing:
            problems.append("every other input slot gives this digest: the "
                            "seed does not reach the program")
        for problem in problems:
            self.fail(traced, f"self-test: {problem}")
        print(f"  self-test    {'FAILED' if problems else 'ok'}: residue "
              f"{residue:.6f} s; a second traced run repeats the digest and "
              f"{len(traced['counts'])} work counts; {differing} of "
              f"{len(others)} other input slots give another digest")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as stream:
        pins = json.load(stream)
    os.makedirs(OUT, exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, pins)
    metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
