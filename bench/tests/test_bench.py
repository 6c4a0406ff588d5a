"""Tests of the benchmark's own parts: inputs, tracer, output checks.

    python3 -m pytest bench/tests -q
"""

import json
import os
import time
from math import factorial

import pytest

import checks
import harness
import inputs
import run
import tracing
from pbci import DerivationClass, brute_force_derivations, classify, parse_algebra, validate
from workloads import FIXTURES, LARGE, N15, N15_COVERAGE, WORKLOADS, base_table

RECORD = json.loads((inputs.DATA / "expected.json").read_text(encoding="utf-8"))
STRATA = json.loads((inputs.DATA / "strata.json").read_text(encoding="utf-8"))
PRODUCTS = tuple(dict.fromkeys(N15 + N15_COVERAGE + LARGE))


@pytest.fixture()
def main():
    return harness.import_cli()


def round_texts(workload, seed, rounds, tmp_path):
    orders = run.Orders(workload, seed, STRATA)
    tables = {label: base_table(label) for label in workload.labels()}
    texts = []
    for r in range(rounds):
        ops = run.build_round(workload, orders, tables, RECORD, r, tmp_path)
        texts.append([(op.args, (tmp_path / op.args[1]).read_bytes()
                       if op.command != "search" else b"") for op in ops])
    return texts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    first = round_texts(workload, 7, 2, tmp_path)
    assert round_texts(workload, 7, 2, tmp_path) == first
    assert round_texts(workload, 8, 2, tmp_path) != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_table_text_is_given_twice(name, tmp_path):
    texts = [text for ops in round_texts(WORKLOADS[name], 3, 2, tmp_path)
             for args, text in ops if args[0] != "search"]
    assert len(set(texts)) == len(texts)


def test_orders_never_repeat_and_run_out():
    source = inputs.OrderSource(3)
    seen = {source.next("cyclic3", 3) for _ in range(factorial(3))}
    assert len(seen) == factorial(3)
    assert source.next("cyclic3", 3) is None


def test_stratified_rounds_use_each_recorded_order_at_most_once():
    workload = WORKLOADS["products-n15"]
    orders = run.Orders(workload, 5, STRATA)
    label = N15[0]
    strata = STRATA[label]["strata"]
    drawn = [orders.for_round(label, 15, r, 5) for r in range(2)]
    assert all(len(rows) == len(strata) for rows in drawn)
    flat = [order for rows in drawn for row in rows for order in row]
    assert len(set(flat)) == len(flat)
    assert orders.for_round(label, 15, 2, 5) == []


@pytest.mark.parametrize("label", PRODUCTS)
def test_products_are_valid_and_flags_are_the_factor_conjunction(label):
    algebra = validate(parse_algebra(base_table(label).text()), max_size=90)
    flags = classify(algebra)
    factors = [classify(validate(parse_algebra(inputs.load(f).text())))
               for f in label.split("*")]
    for field in ("is_bci", "is_pseudo_bck", "is_p_semisimple"):
        assert getattr(flags, field) == all(getattr(f, field) for f in factors), field


def test_cli_call_is_counted_by_the_tracer(main, tmp_path):
    path = tmp_path / "proper5.pbci"
    path.write_text(inputs.load("proper5").text(), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = lambda: tracer.operation(0, "cli.analyze")  # noqa: E731
        code, _, _, seconds = harness.invoke(main, ["analyze", str(path), "--json"], 60, span)
    finally:
        tracer.uninstall()
    assert code == 0
    names = [s[3] for s in tracer.spans]
    # parse_algebra and validate are reached through cli's own namespace,
    # build_report's helpers through report's and theorems'.
    for name in ("formats.parse_algebra", "core.validate", "report.build_report",
                 "report.render_json", "theorems.theorem_suite",
                 "derivations.enumerate_derivations", "dsystems.enumerate_ds"):
        assert name in names, name
    assert names.count("core.atoms") > 1
    rows = tracing.self_times(tracer.spans)
    total = sum(own for _, _, own, _, _ in rows)
    root = tracer.spans[0][5] - tracer.spans[0][4]
    assert total == pytest.approx(root, abs=1e-9)
    assert root <= seconds
    import pbci.cli
    import pbci.core
    assert pbci.cli.validate is pbci.core.validate  # originals are back


def output_of(main, args):
    code, out, err, _ = harness.invoke(main, args, 60)
    return code, out


def test_checker_accepts_outputs_in_any_order(main, tmp_path):
    table = inputs.load("proper5")
    path = tmp_path / "p.pbci"
    for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 4, 0, 3, 1)):
        path.write_text(table.permuted(order).text(), encoding="utf-8")
        for command in ("analyze", "verify", "check", "quotient"):
            code, out = output_of(main, run.table_args(command, str(path)))
            assert checks.mismatch(command, code, out,
                                   RECORD["tables"]["proper5"][command]) is None


def test_checker_rejects_a_corrupted_report(main, tmp_path):
    path = tmp_path / "p.pbci"
    path.write_text(inputs.load("proper5").text(), encoding="utf-8")
    code, out = output_of(main, ["analyze", str(path), "--json"])
    expected = RECORD["tables"]["proper5"]["analyze"]
    assert checks.mismatch("analyze", code, out, expected) is None

    report = json.loads(out)
    block = report["derivations"][0]
    block["maps"][0]["images"] = list(reversed(block["maps"][0]["images"]))
    assert "derivations" in checks.mismatch("analyze", code, json.dumps(report), expected)

    report = json.loads(out)
    report["theorems"][0]["passed"] = False
    assert "theorems" in checks.mismatch("analyze", code, json.dumps(report), expected)

    report = json.loads(out)
    report["deductive_systems"].pop()
    assert checks.mismatch("analyze", code, json.dumps(report), expected)

    report = json.loads(out)
    report["classification"]["is_proper"] = not report["classification"]["is_proper"]
    assert "flags" in checks.mismatch("analyze", code, json.dumps(report), expected)

    assert checks.mismatch("analyze", code, out[:-20], expected)
    assert checks.mismatch("analyze", 1, out, expected)


def test_checker_rejects_other_corrupted_outputs(main, tmp_path):
    path = tmp_path / "p.pbci"
    path.write_text(inputs.load("proper5").text(), encoding="utf-8")
    record = RECORD["tables"]["proper5"]
    code, out = output_of(main, ["check", str(path)])
    assert checks.mismatch("check", code, out.replace("BCI: no", "BCI: yes"), record["check"])
    code, out = output_of(main, ["verify", str(path)])
    assert checks.mismatch("verify", code, out.replace("PASS", "SKIP", 1), record["verify"])
    code, out = output_of(main, ["quotient", str(path), "--by", "K"])
    assert checks.mismatch("quotient", code, out.replace(": 2 class", ": 3 class"),
                           record["quotient"])
    code, out = output_of(main, ["search", "--size", "3"])
    key = "search --size 3"
    assert checks.mismatch("search", code, out, RECORD["searches"][key]) is None
    assert checks.mismatch("search", code, out.replace("b", "a", 1), RECORD["searches"][key])


@pytest.mark.parametrize("label", ("cyclic3", "bck5", "size4-000", "size4-060", "size4-118"))
def test_recorded_derivations_equal_brute_force(label):
    algebra = validate(parse_algebra(base_table(label).text()))
    names = list(algebra.names)
    recorded = RECORD["tables"][label]["analyze"]["derivations"]
    by_name = {str(cls): cls for cls in DerivationClass}
    for cls_name, block in recorded.items():
        maps = brute_force_derivations(algebra, by_name[cls_name])
        assert sorted(checks.map_key(names, [names[v] for v in d]) for d in maps) \
            == block["maps"]


def test_every_input_and_search_has_a_record():
    for workload in WORKLOADS.values():
        for labels, commands in workload.groups:
            for label in labels:
                assert set(commands) <= set(RECORD["tables"][label])
        for args in workload.searches:
            assert " ".join(args) in RECORD["searches"]
    assert set(FIXTURES) <= set(RECORD["tables"])


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_deadline_abandons_an_operation(main):
    code, _, err, seconds = harness.invoke(main, ["search", "--size", "5"], 0.2)
    assert code is None and "deadline" in err
    assert seconds < 5


def test_run_exits_2_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pool-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_scale_averages_the_probes_within_an_interval():
    import calibrate
    speed = calibrate.Speed()
    speed.at = [float(t) for t in range(10)] + [10.0 + t / 10 for t in range(10)]
    speed.took = [2e-4] * 10 + [1e-4, 2e-4] * 5
    speed.spent = [2 * took for took in speed.took]
    # the ten probes in [10.0, 10.95], half at each speed
    assert speed.scale(10.0, 10.95) == 0.75 * calibrate.REFERENCE_S / 1e-4
    # too few probes near t = 0: widened to the nearest MIN_SAMPLES
    assert speed.scale(0.0, 0.0) == calibrate.REFERENCE_S / 2e-4
    # the time spent in the probes within an interval, none widened in
    assert speed.probed(10.0, 10.35) == pytest.approx(2 * (2 * 1e-4 + 2 * 2e-4))
    assert speed.probed(0.5, 0.6) == 0


def test_probes_run_inside_an_operation(main):
    import calibrate
    speed = calibrate.Speed()
    speed.start()
    try:
        start = time.perf_counter()
        code, _, _, _ = harness.invoke(main, ["search", "--size", "4"], 60)
        end = time.perf_counter()
    finally:
        speed.stop()
    assert code == 0
    # one probe per PROBE_INTERVAL_S of CPU time, and it takes far longer
    inside = [t for t in speed.at if start <= t <= end]
    assert len(inside) >= 2
