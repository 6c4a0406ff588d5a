"""Size caps for the exponential workloads.

Every enumeration in this package is exponential in the universe size, so
each one refuses inputs above a conservative default cap.  Setting the
environment variable PBCI_MAX_SIZE overrides all defaults at once; it is
the one override, read by ``effective_cap`` alone.  ``validate`` also takes
an explicit ``max_size``, which wins over both.
"""

from __future__ import annotations

import os

from .errors import EnumerationCapExceeded

UNIVERSE_CAP = 64   # validate() refuses larger tables
ENUM_CAP = 12       # derivation-operator enumeration (search over n^n maps)
DS_CAP = 16         # deductive-system enumeration (NextClosure over closed subsets)
SEARCH_CAP = 6      # model search (n^(2(n-1)(n-2)) table pairs)

ENV_VAR = "PBCI_MAX_SIZE"


def env_cap() -> int | None:
    """PBCI_MAX_SIZE as an integer, or None when it is unset.

    Raises ValueError when it is set to something other than a positive
    integer.
    """
    env = os.environ.get(ENV_VAR)
    if env is None:
        return None
    try:
        cap = int(env)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {env!r}")
    return cap


def effective_cap(default: int) -> int:
    """PBCI_MAX_SIZE when it is set, else the default."""
    env = env_cap()
    return default if env is None else env


def check_enumeration_cap(n: int, default: int, what: str) -> None:
    """Raise EnumerationCapExceeded when a universe of size n exceeds the
    cap resolved from default; what names the enumeration in the message."""
    limit = effective_cap(default)
    if n > limit:
        raise EnumerationCapExceeded(
            f"universe size {n} exceeds {what} cap {limit}")
