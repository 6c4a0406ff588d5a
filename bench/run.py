"""Run one benchmark workload against the pbci CLI and print its metrics.

    python3 bench/run.py --workload pool-small --seed 1 --seconds 30 --trace 0

One process, one caller, a closed loop: each operation starts after the
previous one has finished.  Operations go through the click entry point
in-process (see harness.py) and are timed from argument parsing to captured
stdout; every output is checked against the record (see checks.py).  Times
are scaled to a reference machine speed (see calibrate.py).  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` rounds
alternate between untraced and traced, and the per-layer metrics come from
the traced ones.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import gzip
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import calibrate
import checks
import harness
import inputs
import tracing
from workloads import COMMANDS, WORKLOADS, Workload, base_table, table_args

# Three times the slowest operation of the seed commit (an n = 15 analyze in
# an unlucky order; see SLOW_ORDER_S in record.py); an operation still
# running is abandoned.
DEADLINE_S = 30.0
SETUP_RUNS = 7
SETUP_INTERVAL_S = 2.0

END_TO_END = (
    [("setup_s", "s")]
    + [(f"{c}_s.{stat}", "s") for c in COMMANDS for stat in ("p50", "tail")]
    + [("wall_s", "s"), ("peak_rss_mb", "MB")]
)

PER_LAYER = (
    [(f"{name}.{stat}", unit)
     for name in tracing.TRACED for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    + [("derivations.enumerate_derivations.maps", "count"),
       ("dsystems.enumerate_ds.subsets", "count-computed"),
       ("dsystems.enumerate_ds.systems", "count"),
       ("dsystems.enumerate_ds.hit_ratio", "ratio"),
       ("search.search.models", "count"),
       ("trace.overhead_s", "s")]
)


@dataclass
class Op:
    round: int
    command: str
    args: list[str]
    expected: dict
    start: float = 0.0
    end: float = 0.0
    seconds: float = 0.0   # as measured, less the calibration probes in it
    scale: float = 1.0     # to the reference speed
    failure: str | None = None
    trace_id: int | None = None


@dataclass
class Round:
    traced: bool
    ops: list[Op]

    @property
    def wall(self) -> float:
        """The round's operations back to back, scaled, without the gaps in
        which the benchmark checks outputs or starts processes, and without
        the calibration probes."""
        return sum(op.seconds * op.scale for op in self.ops)


class Orders:
    """The declaration orders each input gets in each round.

    Every command gets its own order, so one process never sees the same
    table text twice, not even across commands.

    Uniform workloads draw fresh orders until an input's n! orders are used
    up, after which the input leaves the rotation.

    Stratified workloads take, per round and command, one recorded order
    from each stratum; the orders of a stratum are sorted by their recorded
    cost.  The seed deals ranks to strata so that every rank is used about
    equally often, each command and round moves every stratum on by one
    rank, and every second input takes the opposite rank, so that a costly
    draw for one input meets a cheap one for the next.  This keeps the
    sample's spread of costs, and so its tail and total, close to the pool's
    in every run.
    """

    def __init__(self, workload: Workload, seed: int, strata: dict):
        self.source = inputs.OrderSource(seed)
        self.strata = None
        if workload.stratified:
            self.strata = {label: strata[label]["strata"] for label in workload.labels()}
            deepest = max(len(pool) for pool in self.strata.values())
            width = len(next(iter(self.strata.values()))[0])
            self.ranks = [s % width for s in range(deepest)]
            random.Random(f"{seed}/ranks").shuffle(self.ranks)
            self.opposite = {label: i % 2 == 1 for i, label in enumerate(self.strata)}

    def for_round(self, label: str, n: int, r: int,
                  commands: int) -> list[list[tuple[int, ...]]]:
        """Per instance of the input in round r, one order per command."""
        if self.strata is None:
            row = [self.source.next(label, n) for _ in range(commands)]
            return [] if None in row else [row]
        out = []
        for s, stratum in enumerate(self.strata[label]):
            if (r + 1) * commands > len(stratum):
                continue
            row = []
            for c in range(commands):
                rank = (self.ranks[s] + r * commands + c) % len(stratum)
                if self.opposite[label]:
                    rank = len(stratum) - 1 - rank
                row.append(tuple(stratum[rank]))
            out.append(row)
        return out


def build_round(workload: Workload, orders: Orders, tables: dict, record: dict,
                r: int, workdir) -> list[Op]:
    """Write this round's input files and list its operations.

    The searches are spread evenly between the inputs, so that they meet
    the same machine conditions as the rest of the round.
    """
    blocks = []
    files = 0
    for labels, commands in workload.groups:
        for label in labels:
            table = tables[label]
            for row in orders.for_round(label, table.size, r, len(commands)):
                block = []
                for command, order in zip(commands, row):
                    path = workdir / f"{files}.pbci"
                    files += 1
                    path.write_text(table.permuted(order).text(), encoding="utf-8")
                    block.append(Op(r, command, table_args(command, str(path)),
                                    record["tables"][label][command]))
                blocks.append(block)
    if not blocks:
        return []
    searches = [[Op(r, "search", list(args), record["searches"][" ".join(args)])]
                for args in workload.searches]
    placed = ([((i + 0.5) / len(blocks), block) for i, block in enumerate(blocks)]
              + [((j + 0.5) / len(searches), block) for j, block in enumerate(searches)])
    placed.sort(key=lambda item: item[0])
    return [op for _, block in placed for op in block]


def run_round(main, ops: list[Op], startup: Startup | None,
              tracer: tracing.Tracer | None) -> None:
    """Run the operations back to back, then check their outputs."""
    results = []
    for op in ops:
        # Start every operation with all collection counters at zero, so the
        # collections inside it fall at the same allocations in every run;
        # freezing the survivors, like the run's own objects, keeps the next
        # collect() short.
        gc.collect()
        gc.freeze()
        span = (functools.partial(tracer.operation, op.trace_id, f"cli.{op.command}")
                if tracer else contextlib.nullcontext)
        op.start = time.perf_counter()
        code, out, err, op.seconds = harness.invoke(main, op.args, DEADLINE_S, span)
        op.end = time.perf_counter()
        results.append((code, out, err))
        if startup:
            startup.tick()
    for op, (code, out, err) in zip(ops, results):
        op.failure = (err.strip() or "exception" if code is None
                      else checks.mismatch(op.command, code, out, op.expected))


class Startup:
    """Cold starts of `python -m pbci.cli --version`, spread through the run.

    One start comes first and is not kept, since it may write bytecode
    caches; after that ``tick`` takes one every SETUP_INTERVAL_S, so that
    the starts meet the same machine conditions as the operations.
    """

    def __init__(self, speed: calibrate.Speed):
        self.speed = speed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(harness.SRC), self.env.get("PYTHONPATH")) if p)
        self.spans: list[tuple[float, float]] = []
        self.last = 0.0
        self._start()

    def _start(self) -> tuple[float, float]:
        self.speed.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pbci.cli", "--version"],
                              env=self.env, cwd=harness.ROOT, capture_output=True,
                              text=True, timeout=60)
        end = time.perf_counter()
        self.speed.sample()
        if proc.returncode != 0 or not proc.stdout.startswith("pbci, version"):
            raise RuntimeError(f"pbci --version failed: {proc.stderr.strip()}")
        self.last = end
        return start, end

    def tick(self) -> None:
        if time.perf_counter() - self.last >= SETUP_INTERVAL_S:
            self.spans.append(self._start())

    def median(self) -> float:
        """Median scaled start time, taking more starts if too few were."""
        while len(self.spans) < SETUP_RUNS:
            self.spans.append(self._start())
        return statistics.median((end - start) * self.speed.scale(start, end)
                                 for start, end in self.spans)


def percentile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-th percentile.

    A mean of the sorted values weighted by the Beta(p(n+1), (1-p)(n+1))
    density over each one's share [i/n, (i+1)/n] of the unit interval.  It
    reads the percentile from the samples around it rather than from the one
    at its rank, so one sample's noise or one seed's draw moves it far less.
    The weights are integrated with Simpson's rule; both Beta parameters are
    at least 1 whenever p leaves a sample on either side.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 16
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ts = [(i + k / steps) / n for k in range(steps + 1)]
        inner = sum((4 if k % 2 else 2) * density(t) for k, t in enumerate(ts[1:-1], 1))
        weights.append(h / 3 * (density(ts[0]) + inner + density(ts[-1])))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def end_to_end(workload: Workload, ops: list[Op], rounds: list[Round],
               startup: Startup, peak_rss_mb: float) -> tuple[dict, list[str]]:
    metrics = {"setup_s": startup.median()}
    notes = [f"setup_s is the median of {len(startup.spans)} starts"]
    for command in COMMANDS:
        mine = [op for op in ops if op.command == command]
        times = [op.seconds * op.scale for op in mine]
        p = workload.tail[command]
        beyond = len(times) - math.ceil(p / 100 * len(times))
        metrics[f"{command}_s.p50"] = percentile(times, 50)
        metrics[f"{command}_s.tail"] = percentile(times, p)
        notes.append(f"{command}_s.tail is p{p:g} of {len(times)} samples, {beyond} "
                     f"beyond it; unscaled p50 "
                     f"{statistics.median(op.seconds for op in mine):.6g} s")
    metrics["wall_s"] = statistics.median(r.wall for r in rounds)
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, notes


def per_layer(spans: list[tuple], ops: list[Op], rounds: list[Round]) -> tuple[dict, float]:
    """Per-layer metrics and the largest per-operation accounting residual.

    Times are medians over traced rounds of the per-round totals, each span
    scaled like its operation; counts are those of the first traced round,
    which the seed alone determines.
    """
    traced = {op.trace_id: op for op in ops if op.trace_id is not None}
    first = min(op.round for op in traced.values())
    totals: dict[int, Counter] = defaultdict(Counter)
    counts: Counter = Counter()
    op_self: Counter = Counter()
    op_time: dict[int, float] = {}
    for op_id, name, own, work, duration in tracing.self_times(spans):
        op = traced[op_id]
        totals[op.round][name] += own * op.scale
        op_self[op_id] += own
        if name.startswith("cli."):
            op_time[op_id] = duration
        if op.round != first:
            continue
        counts[f"{name}.calls"] += 1
        if name == "dsystems.enumerate_ds":
            counts["dsystems.enumerate_ds.systems"] += work[0]
            counts["dsystems.enumerate_ds.subsets"] += work[1]
        elif name == "derivations.enumerate_derivations":
            counts["derivations.enumerate_derivations.maps"] += work
        elif name == "search.search":
            counts["search.search.models"] += work
    residual = max(abs(op_self[i] - op_time[i]) for i in op_time)
    subsets = counts["dsystems.enumerate_ds.subsets"]
    counts["dsystems.enumerate_ds.hit_ratio"] = (
        counts["dsystems.enumerate_ds.systems"] / subsets if subsets else 0.0)
    counts["trace.overhead_s"] = (
        statistics.median(r.wall for r in rounds if r.traced)
        - statistics.median(r.wall for r in rounds if not r.traced))
    metrics = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            metrics[name] = statistics.median(t[span] for t in totals.values())
        else:
            metrics[name] = counts[name]
    return metrics, residual


def write_spans(path, workload: str, seed: int, ops: list[Op], spans: list[tuple]) -> None:
    """Spans as JSON lines after one header line listing the traced operations."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "ops": [
            [op.trace_id, op.round, op.args, op.scale, op.failure] for op in ops
            if op.trace_id is not None]}) + "\n")
        for span in spans:
            f.write(json.dumps(span) + "\n")


def run_workload(main, workload: Workload, seed: int, seconds: float,
                 speed: calibrate.Speed, startup: Startup | None,
                 tracer: tracing.Tracer | None):
    """All rounds of one run: (operations, rounds, peak RSS in MB).

    The peak RSS is taken after the first round.  Later rounds only add the
    heap fragmentation of a long-lived process, which a CLI user, who starts
    a fresh process per file, never has; it would make the figure depend on
    how many rounds fit in the run.
    """
    record = json.loads((inputs.DATA / "expected.json").read_text(encoding="utf-8"))
    strata = json.loads((inputs.DATA / "strata.json").read_text(encoding="utf-8"))
    tables = {label: base_table(label) for label in workload.labels()}
    orders = Orders(workload, seed, strata)
    # The record and the tables live for the whole run; keep them out of the
    # collector's full passes, as in a CLI process that never holds them.
    gc.freeze()
    workdir = harness.ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    all_ops: list[Op] = []
    rounds: list[Round] = []
    traced_ops = 0
    begin = time.perf_counter()
    try:
        for r in itertools.count():
            ops = build_round(workload, orders, tables, record, r, workdir)
            # Stop once used-up inputs would leave less than half a round.
            size = sum(op.command != "search" for op in ops)
            if r == 0:
                first_size = size
            if not size or size < first_size / 2:
                break
            traced = tracer is not None and r % 2 == 1
            if traced:
                for op in ops:
                    op.trace_id = traced_ops
                    traced_ops += 1
                tracer.install()
            round_start = time.perf_counter()
            try:
                run_round(main, ops, startup, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            round_time = time.perf_counter() - round_start
            rounds.append(Round(traced, ops))
            all_ops.extend(ops)
            if r == 0:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for path in workdir.iterdir():
                path.unlink()
            # Stop before a round that would end past --seconds; a traced
            # run needs one untraced and one traced round.
            if (len(rounds) >= (2 if tracer else 1)
                    and time.perf_counter() - begin + round_time > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op in all_ops:
        op.seconds -= speed.probed(op.start, op.end)
        op.scale = speed.scale(op.start, op.end)
    return all_ops, rounds, peak_rss_mb


def main_() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    main = harness.import_cli()
    workload = WORKLOADS[args.workload]
    if workload.max_size is None:
        os.environ.pop("PBCI_MAX_SIZE", None)
    else:
        os.environ["PBCI_MAX_SIZE"] = str(workload.max_size)
    speed = calibrate.Speed()
    startup = None if args.trace else Startup(speed)
    tracer = tracing.Tracer() if args.trace else None
    speed.start()
    try:
        ops, rounds, peak_rss_mb = run_workload(main, workload, args.seed, args.seconds,
                                                speed, startup, tracer)
    finally:
        speed.stop()

    failures = [op for op in ops if op.failure]
    for op in failures[:10]:
        print(f"failed: pbci {' '.join(op.args)}: {op.failure}", file=sys.stderr)
    correct = not failures
    if tracer:
        metrics, residual = per_layer(tracer.spans, ops, rounds)
        out = harness.ROOT / ".bench_out" / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
        write_spans(out, workload.name, args.seed, ops, tracer.spans)
        print(f"# spans written to {out.relative_to(harness.ROOT)}; largest gap between "
              f"an operation's time and its summed self times: {residual:.2e} s")
        correct = correct and residual < 1e-6
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(workload, ops, rounds, startup, peak_rss_mb)
        for note in notes:
            print(f"# {note}")
        units = dict(END_TO_END)
    print(f"# {workload.name} seed {args.seed}: {len(rounds)} rounds, {len(ops)} "
          f"operations, failed_ratio {len(failures) / len(ops):.4f}; calibration "
          f"probe median {speed.median() * 1e6:.2f} us over {len(speed.took)} samples, "
          f"reference {calibrate.REFERENCE_S * 1e6:.2f} us")
    for name, value in metrics.items():
        print(f"# {name:44s} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main_()
