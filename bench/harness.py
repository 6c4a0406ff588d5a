"""Drive the pbci CLI in-process, one operation at a time, with a deadline.

The click entry point ``pbci.cli.main`` runs exactly as ``pbci ARGS`` would:
arguments are parsed, the command runs, and stdout/stderr are captured.
Interpreter start-up is left out on purpose; it is measured on its own as
``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class DeadlineExceeded(BaseException):
    """Raised inside an operation that runs past its deadline.

    A BaseException, so the program's own ``except Exception`` handlers
    cannot swallow it and the operation is abandoned.
    """


def import_cli():
    """Import the program from the checkout's src/, or exit 2 without it."""
    if not (SRC / "pbci" / "cli.py").is_file():
        print(f"error: no pbci sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pbci.cli import main
    return main


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


def invoke(main, args: list[str], deadline_s: float,
           span=contextlib.nullcontext) -> tuple[int | None, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one operation.

    The exit code is None when the operation raised or ran past deadline_s
    and was abandoned.  ``span()`` is entered around the timed call.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_deadline)
    code: int | None = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        start = time.perf_counter()
        with span(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=args, prog_name="pbci", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = (0 if exc.code is None
                        else exc.code if isinstance(exc.code, int) else 1)
            except Exception as exc:  # any escape is a failed operation
                err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        seconds = time.perf_counter() - start
        code = None
        err.write(f"abandoned after the {deadline_s} s deadline\n")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), seconds
