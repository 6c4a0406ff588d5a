"""Order-independent digests of CLI outputs, compared with recorded values.

Every input is some declaration order of a named algebra, so an output is
reduced to facts that do not depend on that order before it is compared:
classification flags, derivation maps keyed by element name, deductive
systems as name sets, theorem ids by status, the quotient's class count, and
for ``search`` (which takes no table) a digest of its stdout.
"""

from __future__ import annotations

import hashlib
import json
import re

_FLAG = re.compile(r"^  (.+): (yes|no)$")
_STATUS = re.compile(r"^(PASS|SKIP|FAIL) (\S+)")
_CLASSES = re.compile(r"^# quotient by \{.*\}: (\d+) class\(es\)$")


def map_key(names: list[str], images: list[str]) -> str:
    """A self-map as 'x=dx' pairs sorted by element name."""
    return " ".join(f"{x}={dx}" for x, dx in sorted(zip(names, images)))


def _statuses(pairs) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {"PASS": [], "SKIP": [], "FAIL": []}
    for status, tid in pairs:
        out[status].append(tid)
    return {status: sorted(tids) for status, tids in out.items()}


def digest(command: str, exit_code: int, stdout: str) -> dict:
    """The order-independent content of one command's output."""
    if command == "check":
        flags = {}
        for line in stdout.splitlines()[1:]:
            m = _FLAG.match(line)
            if m:
                flags[m.group(1)] = m.group(2) == "yes"
        return {"exit": exit_code, "flags": flags}
    if command == "analyze":
        report = json.loads(stdout)
        names = report["algebra"]["names"]
        theorems = []
        for t in report["theorems"]:
            status = ("SKIP" if not t["applicable"]
                      else "PASS" if t["passed"] else "FAIL")
            theorems.append((status, t["id"]))
        return {
            "exit": exit_code,
            "flags": {k: v for k, v in report["classification"].items()
                      if k.startswith("is_")},
            "derivations": {
                b["class"]: {"count": b["count"],
                             "maps": sorted(map_key(names, m["images"])
                                            for m in b["maps"])}
                for b in report["derivations"]},
            "deductive_systems": sorted(sorted(ds["members"])
                                        for ds in report["deductive_systems"]),
            "theorems": _statuses(theorems),
        }
    if command == "verify":
        pairs = [m.groups() for m in map(_STATUS.match, stdout.splitlines()) if m]
        return {"exit": exit_code, "theorems": _statuses(pairs)}
    if command == "quotient":
        m = _CLASSES.match(stdout.splitlines()[0])
        return {"exit": exit_code, "classes": int(m.group(1))}
    if command == "search":
        return {"exit": exit_code,
                "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    raise ValueError(f"no digest for command {command!r}")


def mismatch(command: str, exit_code: int, stdout: str, expected: dict) -> str | None:
    """None when the output matches the recorded digest, else a reason."""
    try:
        got = digest(command, exit_code, stdout)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"unreadable {command} output: {exc!r}"
    if got == expected:
        return None
    differing = sorted(k for k in set(got) | set(expected)
                       if got.get(k) != expected.get(k))
    return f"{command} output differs from the record in {differing}"
