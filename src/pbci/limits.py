"""Size caps for the exponential workloads.

Every enumeration in this package is exponential in the universe size, so
each entry point takes an optional explicit cap and otherwise falls back to
a conservative default.  Setting the environment variable PBCI_MAX_SIZE
overrides all defaults at once; an explicit argument always wins.
"""

from __future__ import annotations

import os

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


def effective_cap(explicit: int | None, default: int) -> int:
    """Resolve a cap: explicit argument, then PBCI_MAX_SIZE, then default."""
    if explicit is not None:
        return explicit
    env = env_cap()
    return default if env is None else env
