"""The benchmark's workloads: which tables, which commands, in what rounds.

A run repeats rounds.  A round runs each of a group's commands on every
input of the group, each time in a fresh seeded declaration order, and the
workload's searches in between.  No table text is given twice within one
process, so a cache keyed on the input could not show a gain that a CLI
user, who pays the full cost on every file, would never see.

Every workload reports every end-to-end metric, so each one also runs the
commands it would otherwise lack on a small companion set of inputs (marked
below); they take a small share of a round.
"""

from __future__ import annotations

from dataclasses import dataclass

import inputs

FIXTURES = ("bck5", "cyclic3", "group6", "mixed6", "proper5")

# The factors of the large products, less cyclic3, whose 3! = 6 orders would
# run out before the run does.
FACTORS = ("bck5", "group6", "mixed6", "proper5")

N15 = ("proper5*cyclic3", "bck5*cyclic3")
N15_COVERAGE = ("cyclic3*cyclic3", "chain2*bck5")
LARGE = ("bck5*bck5", "cyclic3*cyclic3*cyclic3", "mixed6*proper5",
         "group6*group6", "proper5*group6*cyclic3")
# Per tables-large round: three orders of the n = 90 product, so that the
# check and quotient tails fall inside its own timings and their medians
# inside cyclic3^3 and group6^2, not on the edge between two tables.
LARGE_ROUND = LARGE + ("proper5*group6*cyclic3",) * 2

SEARCH_VARIANTS = ((), ("--modulo-iso",),
                   ("--pred", "p_semisimple=false", "--modulo-iso"),
                   ("--pred", "proper"))


def _searches(size: int, repeat: int) -> tuple[tuple[str, ...], ...]:
    return tuple(("search", "--size", str(size)) + variant
                 for _ in range(repeat) for variant in SEARCH_VARIANTS)


@dataclass(frozen=True)
class Workload:
    name: str
    # (input labels, commands run on each) in round order
    groups: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    # search argument lists run at the end of every round
    searches: tuple[tuple[str, ...], ...]
    # PBCI_MAX_SIZE for the run, or None to leave the defaults
    max_size: int | None
    # orders come from the recorded strata (see record.py) instead of fresh
    # uniform draws; every stratum gives one order per round
    stratified: bool
    # the percentile reported as <command>_s.tail: one that left at least
    # ten samples beyond it in every run of the seed commit, with room for a
    # slower host; the highest such one unless that spread too much from
    # seed to seed (pool-small, verify in products-n15)
    tail: dict[str, float]

    def labels(self) -> tuple[str, ...]:
        return tuple(label for labels, _ in self.groups for label in labels)


WORKLOADS = {
    w.name: w for w in (
        # The exponential path: derivation and deductive-system enumeration
        # at n = 15, whose cost swings by an order of magnitude with the
        # declaration order.  The n = 9 and n = 10 products add the
        # p-semisimple-gated theorems and derivation types III/IV.
        # Companion: search --size 3, 160 times a round: with 40, its tail
        # spread a tenth from seed to seed.
        # verify runs on two orders per stratum: one sample per stratum
        # left its tail spreading a fifth from seed to seed.
        Workload(
            name="products-n15",
            groups=((N15 + N15_COVERAGE,
                     ("analyze", "verify", "verify", "check", "quotient")),),
            searches=(("search", "--size", "3"),) * 160,
            max_size=15,
            stratified=True,
            tail={"analyze": 75, "verify": 75, "check": 75, "quotient": 75,
                  "search": 75},
        ),
        # Per-call overhead: many tiny tables, where report assembly,
        # rendering, crosschecks and CLI dispatch dominate, plus the
        # labelled size-3/4 searches.  Size-4 searches run three times a
        # round so that their cost, not the size-3 one, sets search_s.p50.
        Workload(
            name="pool-small",
            groups=((FIXTURES + tuple(label for label, _ in inputs.pool_size4()),
                     ("analyze", "verify", "check", "quotient")),),
            searches=_searches(3, 1) + _searches(4, 3),
            max_size=None,
            stratified=False,
            tail={"analyze": 98, "verify": 98, "check": 98, "quotient": 98,
                  "search": 80},
        ),
        # Polynomial scans at n = 25..90 (axiom scan, sanity crosscheck,
        # classify, congruence classes) where enumeration never runs.
        # Companions: analyze and verify on the factors, search --size 3.
        Workload(
            name="tables-large",
            groups=((LARGE_ROUND, ("check", "quotient")),
                    (FACTORS * 4, ("analyze", "verify"))),
            searches=(("search", "--size", "3"),) * 40,
            max_size=90,
            stratified=False,
            tail={"analyze": 75, "verify": 75, "check": 80, "quotient": 80,
                  "search": 75},
        ),
    )
}

COMMANDS = ("analyze", "verify", "check", "quotient", "search")


def table_args(command: str, path: str) -> list[str]:
    """CLI arguments of a table command on one input file."""
    return {"analyze": ["analyze", path, "--json"],
            "verify": ["verify", path],
            "check": ["check", path],
            "quotient": ["quotient", path, "--by", "K"]}[command]


def base_table(label: str) -> inputs.Table:
    """The input behind a label, in its recorded declaration order."""
    if label.startswith("size4-"):
        return dict(inputs.pool_size4())[label]
    return inputs.named(label)
