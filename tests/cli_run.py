"""Run the `torelli` command in process, as the tests call it.

Not a test module: `invoke(args)` runs `torelli.cli.main(args)` with
stdout and stderr captured and returns its exit code, its stdout, its
stderr, and `output`, the two interleaved as they were written.  `main`
returns the code for help and usage errors too; an exception propagates.
"""

import contextlib
import io
from dataclasses import dataclass

from torelli.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str


class _Capture(io.StringIO):
    """One stream that also copies what it is sent into a shared one."""

    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self._both = both

    def write(self, text: str) -> int:
        self._both.write(text)
        return super().write(text)


def invoke(args) -> Result:
    both = io.StringIO()
    out, err = _Capture(both), _Capture(both)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return Result(code, out.getvalue(), err.getvalue(), both.getvalue())
