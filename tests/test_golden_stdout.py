"""Byte-for-byte pins of the CLI's stdout for a few tables, stage dumps
and graph reductions.

Each table and stage-dump sha256 was taken from the program before its
stages after exp_h were moved onto beta-set masks, except the dim 2
plethysm dump and the dim 2 degree 9 closed table, which were taken
before exp_h moved from p-monomials to ribbon strips, and the dim 2 and
dim 10 chB dumps, which were taken before ch_B moved from products of
geometric series to one table of label counts, and the two `--genus`
tables, which were taken before series lost their negative exponents;
each graph sha256, before the graph oracle left the package.  None may be re-taken from
later output: a change here means the printed output changed.
"""

import hashlib
import json

import pytest
from cli_run import invoke


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
    (
        "series --dim 2 --max-degree 8 --stage plethysm",
        "013a512a6c363ee32c313ff4d8f71c8368e3023614cf66b4784f20b35644198b",
    ),
    (
        "cohomology --dim 2 --max-degree 9 --variant closed",
        "8168c3a7a2ea3832775a068922a73ebe64d1b3093bb978e0b30db8a45cc0e3fe",
    ),
    # n = 1, whose Pontrjagin window is empty, and n = 5, where the
    # labels of degree at most 2n are 1, e and p_2
    (
        "series --dim 2 --max-degree 8 --stage chB",
        "2fa7e855dd816fbcef8c7a5451f557ec52ac126eb7610f8d7ab8496df95246dc",
    ),
    (
        "series --dim 10 --max-degree 12 --stage chB",
        "98dae094cb8800a3feb4ec6b6ada08a88a90e01dbbb785b04e198413d61508e8",
    ),
    # the trust window's marks and its closing line, and the dimension 4
    # note that no finite-genus window is known
    (
        "cohomology --dim 6 --max-degree 6 --genus 9",
        "a1ab8fa89e491a977f3e4f99b4ee546a91b60a8a58d5f309e26e4ddaab3471cd",
    ),
    (
        "cohomology --dim 4 --max-degree 4 --genus 3",
        "793f93aa400ae87cb494da9d49935414d38b4b1c70f2d3faaa619be42486a77e",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_is_unchanged(command, digest):
    result = invoke(command.split())
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def _graph(n, legs, labels, incidence, matching):
    return {
        "n": n,
        "legs": legs,
        "vertices": [{"label": label} for label in labels],
        "half_edges": [{"vertex": v} for v in incidence],
        "matching": [pair.split("-") for pair in matching.split()],
    }


# Five graph files for `graph reduce`, with the sha256 of its stdout under
# P0 and P, and under Pprime where the contraction stays in that variant.
GRAPH_FILES = {
    "igraph": (
        _graph(3, [1, 2, 5, 6], ["1", "1"], [0, 0, 0, 1, 1, 1], "h0-L1 h1-L2 h2-h3 h4-L5 h5-L6"),
        "65a11fd925c01748f98300ddae1e8a2c4525c3a066a42d4eae7ed559457def10",
    ),
    "theta-with-tail": (
        _graph(1, [1], ["1"] * 3, [0, 0, 0, 1, 1, 1, 2, 2, 2], "h0-L1 h1-h3 h2-h6 h4-h7 h5-h8"),
        "1b6bb34ce400428d95ac2f47c335a143b1fd67a1b695bfca01f6849c4f2d104c",
    ),
    "lollipop": (
        _graph(3, [1], ["1"], [0, 0, 0], "h0-h1 h2-L1"),
        "34b1e432a166565639a0255382a17b5c3f315d6d4090bc801a14ec403fb23487",
    ),
    # the legs cross, so the contraction carries the sign -1
    "p1-and-e-p2": (
        _graph(3, [1, 2], ["p1", "e*p2"], [0, 0, 1, 1], "h0-L2 h1-h2 h3-L1"),
        "f0d09beb42e19c13a95ccb55b8f6c556c8c68efb26ce0552d44f7aad34457bf0",
    ),
    "leg-pair": (
        _graph(3, [1, 2], [], [], "L1-L2"),
        "4e35fd5bfb7a249cd766d77a3001c9a147f3a24df33af7b090103e4cb79b7ef5",
    ),
}

GRAPH_RUNS = [
    (name, variant)
    for name in GRAPH_FILES
    for variant in ("P0", "P", "Pprime")
    if (name, variant) != ("leg-pair", "Pprime")
]


def _reduce_file(tmp_path, name, variant):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GRAPH_FILES[name][0]), encoding="utf-8")
    return invoke(["graph", "reduce", str(path), "--variant", variant])


@pytest.mark.parametrize("name, variant", GRAPH_RUNS, ids=[f"{n}-{v}" for n, v in GRAPH_RUNS])
def test_graph_reduce_stdout_is_unchanged(tmp_path, name, variant):
    result = _reduce_file(tmp_path, name, variant)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == GRAPH_FILES[name][1]


def test_a_leg_pair_leaves_pprime(tmp_path):
    result = _reduce_file(tmp_path, "leg-pair", "Pprime")
    assert result.exit_code == 3
    assert "leaves variant Pprime" in result.output
