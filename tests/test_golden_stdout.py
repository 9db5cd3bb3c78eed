"""Byte-for-byte pins of the CLI's stdout for a few tables and stage dumps.

Each sha256 was taken from the program before its stages after exp_h
were moved onto beta-set masks, and must not be re-taken from later
output: a change here means the printed tables changed.
"""

import hashlib

import pytest
from click.testing import CliRunner

from torelli.cli import main

STAGE_DUMPS = {
    "chB": "766368ffff7e607028cd457f7db2ec5bfae2a7b414e2a5383fe2a4380bdc63b8",
    "plethysm": "ac2454076f1499bee2628b605b7d065e41bef7ec0f0c5c5caab877e6fd3bf1ca",
    "pre-D": "8da0e7dd10db095924d9129cc13149b67d164ff08bc2990f135fced0322f69da",
    "post-D": "e1a90c5382e918871790a5b555d53d0ffc62bdff751410ec99ff377f2a21be48",
    "final": "37e134cfeee25e3620953d493f6db4c250e47c2e95e5ce7f6eb91447cd70c580",
}

GOLDEN = [
    (
        "cohomology --dim 2 --max-degree 8 --variant closed",
        "11d72835af55b96d46ba5b62881cb2532c3bf320cfa1f80176ab3e5dba3f3afe",
    ),
    (
        "cohomology --dim 2 --max-degree 6 --variant point --format json",
        "f9472d28f67a80d1041a10da84af472ed81a5ca592c6a6e3e9fd9f2164e1030f",
    ),
    (
        "cohomology --dim 6 --max-degree 12 --format latex",
        "9c29d38bab991477022c1bc389bcc63441808601ec6fd06e71204e4fb1411f2d",
    ),
    (
        "cohomology --dim 10 --max-degree 12 --variant closed",
        "875103f00c96a1f22e5cd54d4a522e255d096fcbd1208f6072154dc9f4b96648",
    ),
    *[
        (f"series --dim 6 --max-degree 8 --stage {stage}", digest)
        for stage, digest in STAGE_DUMPS.items()
    ],
    (
        "series --dim 2 --max-degree 6 --stage final --variant closed",
        "27d43885dacf08b9548a28a865dbafa35dee4bf44ce3fd70dd989d0348c4a34a",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_is_unchanged(command, digest):
    result = CliRunner().invoke(main, command.split())
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
