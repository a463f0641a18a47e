#!/usr/bin/env python3
"""Run one toruslift benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload runs in this one process, closed loop,
one verdict at a time, for S seconds of whole rounds, and every verdict
is checked by the oracles in ``oracles.py``.

Times are given at reference speed (see ``calibrate.py``): every round
and every set-up probe is timed between two runs of a fixed reference
computation, and its wall time is scaled to a machine on which that
reference takes ``calibrate.REFERENCE_S`` seconds.  This host's speed
drifts by up to 2x; the scaling takes the drift out and leaves the
program's own cost.  The process and its children run on one CPU, so the
references see the CPU the work ran on.

With ``--trace 0`` the metrics are the end-to-end ones: ``verdict_s``,
``peak_rss_mb`` (this process's peak resident memory) and ``setup_s``.
``verdict_s`` is the median over the run's rounds whose verdicts all
passed, per verdict.  The verdict phase is cut into SLOTS equal spans of
its seconds, and each span opens with a set-up probe: a separate process
timed from its start through ``import toruslift`` to the workload's inputs
built from the seed.  ``setup_s`` is the median of the SLOTS probes.  With
``--trace 1`` untraced rounds run for S seconds, then one traced round on
the inputs of round 0 gives the per-layer metrics and the tracing
overhead.

A verdict fails if it raises or its oracle rejects it.  A run with any
failed verdict reports ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
goes to ``bench/out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import ReferenceClock

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SLOTS = 12


def import_package():
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "toruslift" / "__init__.py").is_file():
        sys.exit("error: no toruslift sources at %s; run from the root of a "
                 "source checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import toruslift
    if Path(toruslift.__file__).resolve().parent != SRC / "toruslift":
        sys.exit("error: imported toruslift from %s, not from %s"
                 % (toruslift.__file__, SRC))


class Tally:
    """Verdicts attempted and failed (raised, or rejected by an oracle),
    with the first problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def decide(self, verdict):
        """Decide one verdict; True if it passed its checks."""
        self.attempted += 1
        try:
            problems = verdict()
        except Exception:   # a raising verdict is counted, and the run goes on
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            sys.stderr.write("failed verdict: %s\n" % "; ".join(problems))
            return False
        return True


def run_rounds(workload, seconds, tally, spans, clock, probe=None):
    """Rounds until their total wall time reaches ``seconds``; at least
    one.  That span is cut into SLOTS equal slots, and ``probe(clock)``
    runs as each slot opens.  Returns the wall time of every round and,
    for each round whose verdicts all passed, its time at reference
    speed."""
    walls, samples = [], []
    opened = -1
    while not walls or sum(walls) < seconds:
        slot = int(sum(walls) * SLOTS / seconds)
        while probe is not None and opened < slot:
            probe(clock)
            opened += 1
        start = time.perf_counter()
        passed = [tally.decide(v) for v in workload.round(len(walls), spans)]
        walls.append(time.perf_counter() - start)
        scaled = clock.scale(walls[-1])
        if all(passed):
            samples.append(scaled)
    return walls, samples


class SetupProbe:
    """Set-up time, measured in separate processes during the verdict
    phase so that they see the same machine as the verdicts.  Each child
    reports the moment its inputs are ready on the system-wide monotonic
    clock."""

    def __init__(self, args):
        self.args = args
        self.walls = []
        self.samples = []

    def __call__(self, clock):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", self.args.workload, "--seed", str(self.args.seed),
             "--probe-setup"],
            capture_output=True, text=True, timeout=120, check=True)
        self.walls.append(float(child.stdout.split()[-1]) - start)
        self.samples.append(clock.scale(self.walls[-1]))


def result(tally, metrics):
    """The run's last line: correct only if no verdict failed."""
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload_cls):
    """verdict_s and setup_s are medians at reference speed.  With no
    round that passed, there is no verdict_s."""
    from workloads import Spans
    workload = workload_cls(args.seed)
    tally = Tally()
    clock = ReferenceClock()
    probe = SetupProbe(args)
    rounds, samples = run_rounds(workload, args.seconds, tally, Spans(False),
                                 clock, probe=probe)
    while len(probe.samples) < SLOTS:
        probe(clock)
    per = workload.verdicts_per_round
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"verdict_s": metric(statistics.median(samples) / per, "s")} \
        if samples else {}
    metrics.update(peak_rss_mb=metric(peak_mb, "MiB"),
                   setup_s=metric(statistics.median(probe.samples), "s"))
    record = {"round_s": rounds, "sample_s": samples,
              "reference_s": clock.references,
              "setup_wall_s": probe.walls, "setup_samples_s": probe.samples,
              "wall_verdict_s": statistics.median(rounds) / per}
    return tally, metrics, record


def traced(args, workload_cls):
    """Untraced rounds for the run's seconds, then round 0 again with every
    layer call timed, all at reference speed.  Shares are of the traced
    verdict's own calls."""
    from workloads import PER_LAYER, Spans
    workload = workload_cls(args.seed)
    tally = Tally()
    clock = ReferenceClock()
    rounds, samples = run_rounds(workload, args.seconds, tally, Spans(False),
                                 clock)
    spans = Spans(True)
    start = time.perf_counter()
    for verdict in workload.round(0, spans):
        tally.decide(verdict)
    wall = time.perf_counter() - start
    traced_round = clock.scale(wall)
    speed = traced_round / wall
    per = workload.verdicts_per_round
    plain = statistics.median(samples) / per if samples else None
    metrics = {}
    for name, unit in PER_LAYER.items():
        value = spans.counts[name] if unit == "count" else \
            spans.seconds[name] * speed / per
        metrics[name] = metric(value, unit)
    if plain is not None:
        metrics["trace.overhead_s"] = metric(traced_round / per - plain, "s")
    on_path = sum(spans.seconds[name] for name in workload.path)
    shares = {name: spans.seconds[name] / on_path
              for name, unit in PER_LAYER.items() if unit == "s"}
    record = {"untraced_verdict_s": plain, "traced_round_s": traced_round,
              "traced_round_wall_s": wall, "round_s": rounds,
              "reference_s": clock.references,
              "shares_of_traced_verdict": shares}
    return tally, metrics, record


def pin_to_one_cpu():
    """Run this process and its set-up probes on one CPU, the one the
    references measure."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS
    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    if args.probe_setup:
        workload_cls(args.seed)
        print(repr(time.monotonic()))
        return 0

    pin_to_one_cpu()
    run = traced if args.trace else end_to_end
    tally, metrics, record = run(args, workload_cls)
    summary = result(tally, metrics)
    OUT.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    record.update(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, problems=tally.problems[:20])
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
