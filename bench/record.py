"""Record the benchmark's expected outputs and order strata.

    python3 bench/record.py

Run once, at the commit the benchmark is defined against; it rewrites
``data/expected.json`` and ``data/strata.json`` and takes a few minutes.

* expected.json holds, for every input and command, the order-independent
  digest of the output (see checks.py), taken in the recorded declaration
  order and confirmed on two other orders.  For tables of at most 6
  elements every recorded derivation set is also confirmed against
  ``brute_force_derivations``.  Searches are recorded by their arguments.
* strata.json holds, for each input of a stratified workload, a pool of
  seeded declaration orders sorted by the median of TIMINGS times
  ``analyze`` takes on them here, scaled like the run's times (kept as
  ``analyze_s``), and cut into equal strata.  A run draws one order per
  stratum for each command of a round, so every run sees the same spread of
  cheap and costly orders and the order-sensitive tail reads the same from
  seed to seed.  Orders slower than SLOW_ORDER_S are listed as
  ``left_out``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

import calibrate
import checks
import harness
import inputs
from workloads import WORKLOADS, base_table, table_args

ORDERS_PER_STRATUM = 10
STRATA = {"proper5*cyclic3": 16, "bck5*cyclic3": 16,
          "cyclic3*cyclic3": 4, "chain2*bck5": 4}
RECORD_DEADLINE_S = 120.0
# About 1% of n = 15 orders make analyze run 20-40 s, against 0.1-7 s for
# the rest; one such operation would outlast a whole 30 s run.  Orders past
# this limit are left out of the pool and listed in strata.json.
SLOW_ORDER_S = 10.0
# Each order is timed this often, in separate passes over the pool so that a
# slow stretch of the host skews no order alone, and ranked by the median.
TIMINGS = 3


def run(main, args: list[str]) -> tuple[int | None, str, float]:
    code, out, err, seconds = harness.invoke(main, args, RECORD_DEADLINE_S)
    if code is None:
        raise SystemExit(f"pbci {' '.join(args)} failed: {err}")
    return code, out, seconds


def digest_on(main, table: inputs.Table, command: str, path: Path) -> dict:
    path.write_text(table.text(), encoding="utf-8")
    code, out, _ = run(main, table_args(command, str(path)))
    return checks.digest(command, code, out)


def confirm_by_brute_force(label: str, table: inputs.Table, analyzed: dict) -> None:
    from pbci import DerivationClass, brute_force_derivations, parse_algebra, validate
    A = validate(parse_algebra(table.text()))
    by_name = {str(cls): cls for cls in DerivationClass}
    for cls_name, block in analyzed["derivations"].items():
        maps = brute_force_derivations(A, by_name[cls_name])
        oracle = sorted(checks.map_key(list(A.names), [A.names[v] for v in d])
                        for d in maps)
        if oracle != block["maps"] or len(maps) != block["count"]:
            raise SystemExit(f"{label}: {cls_name} differs from brute force")


def record_strata(main, label: str, path: Path) -> dict:
    """The pool of orders for one input, ranked by analyze time and cut."""
    table = base_table(label)
    rng = random.Random(f"strata/{label}")
    speed = calibrate.Speed()

    def timed(order: list[int]) -> tuple[int | None, float]:
        path.write_text(table.permuted(tuple(order)).text(), encoding="utf-8")
        start = time.perf_counter()
        code, _, _, seconds = harness.invoke(
            main, table_args("analyze", str(path)), SLOW_ORDER_S)
        end = time.perf_counter()
        return code, (seconds - speed.probed(start, end)) * speed.scale(start, end)

    pool: list[tuple[list[int], list[float]]] = []
    left_out = []
    speed.start()
    try:
        while len(pool) < STRATA[label] * ORDERS_PER_STRATUM:
            order = list(range(table.size))
            rng.shuffle(order)
            code, seconds = timed(order)
            if code == 0:
                pool.append((order, [seconds]))
            else:
                left_out.append(order)
        for _ in range(TIMINGS - 1):
            for order, times in pool:
                times.append(timed(order)[1])
    finally:
        speed.stop()
    ranked = sorted((statistics.median(times), order) for order, times in pool)
    print(f"strata {label}: {len(left_out)} orders left out; analyze "
          + " ".join(f"{s:.3f}" for s, _ in ranked[::ORDERS_PER_STRATUM]),
          file=sys.stderr)
    return {
        "strata": [[order for _, order in ranked[i:i + ORDERS_PER_STRATUM]]
                   for i in range(0, len(ranked), ORDERS_PER_STRATUM)],
        "analyze_s": [round(s, 3) for s, _ in ranked],
        "left_out": left_out,
    }


def main_() -> None:
    main = harness.import_cli()
    work = harness.ROOT / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "input.pbci"
    expected: dict[str, dict] = {}
    searches: dict[str, dict] = {}
    strata: dict[str, dict] = {}
    for workload in WORKLOADS.values():
        if workload.max_size is None:
            os.environ.pop("PBCI_MAX_SIZE", None)
        else:
            os.environ["PBCI_MAX_SIZE"] = str(workload.max_size)
        for labels, commands in workload.groups:
            for label in labels:
                table = base_table(label)
                rng = random.Random(f"record/{label}")
                entry = expected.setdefault(label, {})
                for command in commands:
                    if command in entry:
                        continue
                    entry[command] = digest_on(main, table, command, path)
                    for _ in range(2):
                        order = list(range(table.size))
                        rng.shuffle(order)
                        again = digest_on(main, table.permuted(tuple(order)),
                                          command, path)
                        if again != entry[command]:
                            raise SystemExit(f"{label}: {command} depends on order")
                    if command == "analyze" and table.size <= 6:
                        confirm_by_brute_force(label, table, entry[command])
                print(f"recorded {workload.name} {label}", file=sys.stderr)
        for args in workload.searches:
            key = " ".join(args)
            if key not in searches:
                code, out, _ = run(main, list(args))
                searches[key] = checks.digest("search", code, out)
        if workload.stratified:
            for label in workload.labels():
                strata[label] = record_strata(main, label, path)
    path.unlink()
    record = {"tables": expected, "searches": searches}
    (inputs.DATA / "expected.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    (inputs.DATA / "strata.json").write_text(
        json.dumps(strata, separators=(",", ":")) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main_()
