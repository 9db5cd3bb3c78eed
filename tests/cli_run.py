"""Run the `torelli` command in process, as the tests call it.

Not a test module: `invoke(args)` runs `torelli.cli.main(args)` with
stdout and stderr captured and returns its exit code, its stdout, and
`output`, stdout and stderr interleaved as they were written.  A
`SystemExit` becomes the exit code; any other exception propagates.
"""

import contextlib
import io
from dataclasses import dataclass

from torelli.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
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
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return Result(code, out.getvalue(), both.getvalue())
