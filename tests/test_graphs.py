import json
import random
import time

import pytest
from cli_run import invoke
from graph_oracle import (
    NonTrivalentInput,
    compare_sign,
    contract_in_order,
    igraph,
    is_trivalent_mode,
    presentation_audit,
    random_general_graph,
    random_graph,
    reduce_trivalent,
    reduce_vector,
    theta_with_tail,
)

from torelli import graphs
from torelli.graphs import HALF_EDGE_CAP, ForbiddenResult, MarkedGraph, parse_graph, reduce
from torelli.labels import LabelMonomial
from torelli.setparts import LabelledPartition

U3 = LabelMonomial.unit(3)
E3 = LabelMonomial.e(3)
P1 = LabelMonomial.p(3, 1)
P2 = LabelMonomial.p(3, 2)
P1SQ = P1 * P1
# a cubic vertex with a loop and leg 1
LOLLIPOP = MarkedGraph(3, (1,), [U3], [0, 0, 0], [(("h", 0), ("h", 1)), (("h", 2), ("L", 1))])


# Test fixtures: a one-vertex graph, and the JSON graph format written
# back from a graph, the inverse of `parse_graph` that the package does
# not need.

def corolla(n, label, legs):
    """Single vertex with its slots matched to the given legs in order."""
    legs = tuple(legs)
    matching = [(("h", i), ("L", x)) for i, x in enumerate(legs)]
    return MarkedGraph(n, legs, [label], [0] * len(legs), matching)


def graph_json(g):
    return {
        "n": g.n,
        "legs": list(g.legs),
        "vertices": [{"label": str(c)} for c in g.labels],
        "half_edges": [{"vertex": v} for v in g.half_edge_vertex],
        "matching": [[f"{tag}{val}" for tag, val in pair] for pair in g.matching],
    }


def test_corolla_reduces_to_its_part():
    g = corolla(3, U3, (1, 2, 3))
    part = LabelledPartition(3, [((1, 2, 3), U3)])
    assert reduce(g).coefficient(part) == 1


def test_leg_order_sign():
    g = corolla(3, U3, (1, 2, 3))
    g_rev = MarkedGraph(
        3,
        (1, 2, 3),
        [U3],
        [0, 0, 0],
        [(("h", 0), ("L", 3)), (("h", 1), ("L", 2)), (("h", 2), ("L", 1))],
    )
    part = LabelledPartition(3, [((1, 2, 3), U3)])
    assert reduce(g_rev).coefficient(part) == -1
    assert compare_sign(g, g_rev) == -1
    # even weight: orientations drop out
    g2 = corolla(2, LabelMonomial.unit(2), (1, 2, 3))
    g2_rev = MarkedGraph(
        2,
        (1, 2, 3),
        [LabelMonomial.unit(2)],
        [0, 0, 0],
        [(("h", 0), ("L", 3)), (("h", 1), ("L", 2)), (("h", 2), ("L", 1))],
    )
    assert compare_sign(g2, g2_rev) == 1


def test_loop_contracts_to_euler_label():
    part_e = LabelledPartition(3, [((1,), E3)])
    assert abs(reduce(LOLLIPOP).coefficient(part_e)) == 1


def test_vertex_swap_sign():
    # two univalent vertices, odd total degree: transposing them flips
    ga = MarkedGraph(
        3,
        (1, 2),
        [P1SQ, P2],
        [0, 1],
        [(("h", 0), ("L", 1)), (("h", 1), ("L", 2))],
    )
    gb = MarkedGraph(
        3,
        (1, 2),
        [P2, P1SQ],
        [0, 1],
        [(("h", 0), ("L", 2)), (("h", 1), ("L", 1))],
    )
    assert compare_sign(ga, gb) == -1
    pab = LabelledPartition(3, [((1,), P1SQ), ((2,), P2)])
    ca = reduce(ga).coefficient(pab)
    cb = reduce(gb).coefficient(pab)
    assert ca == -cb != 0


LEAF_LABELS = {
    3: [E3, P1, P2, P1SQ, P2 * P1],
    2: [LabelMonomial.e(2), LabelMonomial.p(2, 1), LabelMonomial.e(2, 2)],
}


def test_contraction_order_confluence():
    rng = random.Random(7)
    count = 0
    tries = 0
    while count < 120 and tries < 3000:
        tries += 1
        n = rng.choice([2, 3])
        g = random_graph(rng, n, LEAF_LABELS[n])
        if g is None:
            continue
        base = reduce(g, variant="P")
        for _ in range(3):
            shuffled = contract_in_order(g, "P", rng)
            assert shuffled.coeffs == base.coeffs, graph_json(g)
        count += 1
    assert count == 120


def test_one_pass_matches_the_sequential_contraction_on_general_graphs():
    rng = random.Random(19)
    signs = set()
    count = 0
    while count < 2000:
        n = rng.randrange(1, 6)
        g = random_general_graph(rng, n)
        if g is None:
            continue
        fast = reduce(g, variant="P")
        assert fast == contract_in_order(g, "P", rng), graph_json(g)
        signs.update(fast.coeffs.values())
        count += 1
    assert signs == {1, -1}


def _looped_vertex(loops):
    # one unit vertex with the given loops and legs 1 and 2
    matching = [(("h", 2 * i), ("h", 2 * i + 1)) for i in range(loops)]
    matching += [(("h", 2 * loops), ("L", 1)), (("L", 2), ("h", 2 * loops + 1))]
    return MarkedGraph(3, (1, 2), [U3], [0] * (2 * loops + 2), matching)


def _path(vertices):
    # bivalent p1 vertices in a row between legs 1 and 2
    ends = [("L", 1)] + [("h", i) for i in range(2 * vertices)] + [("L", 2)]
    matching = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
    return MarkedGraph(3, (1, 2), [P1] * vertices, [i // 2 for i in range(2 * vertices)], matching)


def test_reduce_is_one_pass_over_the_matching():
    for graph, part in (
        (_looped_vertex(2400), LabelledPartition(3, [((1, 2), LabelMonomial.e(3, 2400))])),
        (_path(3000), LabelledPartition(3, [((1, 2), LabelMonomial.p(3, 1, 3000))])),
    ):
        start = time.perf_counter()
        vec = reduce(graph)
        assert time.perf_counter() - start < 0.1
        assert abs(vec.coefficient(part)) == 1
    assert reduce(_looped_vertex(600)) == contract_in_order(_looped_vertex(600))


def test_edge_slide_identity():
    hgraph = igraph((1, 5, 6, 2))
    assert reduce_trivalent(igraph()) == reduce_trivalent(hgraph)
    assert reduce(igraph()) == reduce(hgraph)


def test_lollipop_rewrites_to_euler_leaf():
    normal = reduce_trivalent(LOLLIPOP)
    ((g, c),) = normal.items()
    assert list(g.valences()) == [1]
    assert str(g.labels[0]) == "e"
    assert reduce_vector(normal) == reduce(LOLLIPOP)


def test_theta_with_tail():
    theta = theta_with_tail()
    vec = reduce(theta)
    part = LabelledPartition(1, [((1,), LabelMonomial.e(1, 2))])
    assert abs(vec.coefficient(part)) == 1
    normal = reduce_trivalent(theta)
    ((g, c),) = normal.items()
    assert list(g.valences()) == [1]
    assert str(g.labels[0]) == "e^2"
    assert abs(c) == 1
    assert reduce_vector(normal) == vec


def test_trivalent_rewriting_commutes_with_contraction():
    rng = random.Random(11)
    count = 0
    tries = 0
    while count < 60 and tries < 4000:
        tries += 1
        n = rng.choice([2, 3])
        g = random_graph(rng, n, LEAF_LABELS[n])
        if g is None or not is_trivalent_mode(g):
            continue
        lhs = reduce_vector(reduce_trivalent(g), variant="P")
        rhs = reduce(g, variant="P")
        assert lhs.coeffs == rhs.coeffs, graph_json(g)
        count += 1
    assert count == 60


def test_rewriting_combs_a_tree_beside_a_closed_component():
    # a tree on legs 1-4 and, apart from it, a loop whose vertex carries
    # a p1 leaf; combing the tree moves the other component's vertices
    u2 = LabelMonomial.unit(2)
    ends = "h0-h6 h2-L1 h4-h9 h3-h5 L4-h8 L3-h1 h7-L2"
    g = MarkedGraph(
        2,
        (1, 2, 3, 4),
        [u2, u2, u2, LabelMonomial.p(2, 1)],
        [0, 0, 0, 1, 1, 1, 2, 2, 2, 3],
        [tuple((e[0], int(e[1:])) for e in pair.split("-")) for pair in ends.split()],
    )
    assert reduce_vector(reduce_trivalent(g)) == reduce(g)


def test_rejects_non_trivalent():
    bad = corolla(3, P1SQ, (1, 2, 3, 4))
    with pytest.raises(NonTrivalentInput):
        reduce_trivalent(bad)


def test_variant_gate():
    pair = MarkedGraph(3, (1, 2), [], [], [(("L", 1), ("L", 2))])
    with pytest.raises(ForbiddenResult):
        reduce(pair, variant="Pprime")
    assert reduce(pair, variant="P0").coefficient(
        LabelledPartition(3, [((1, 2), U3)])
    ) == 1


def test_json_round_trip():
    g = igraph()
    blob = graph_json(g)
    assert parse_graph(blob) == g
    assert parse_graph(json.dumps(blob)) == g


def _reduce_blob(tmp_path, blob):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    return invoke(["graph", "reduce", str(path)])


@pytest.mark.parametrize("label", [5, None])
def test_a_non_string_label_is_a_configuration_error(tmp_path, label):
    blob = graph_json(corolla(3, U3, (1, 2, 3)))
    blob["vertices"][0]["label"] = label
    result = _reduce_blob(tmp_path, blob)
    assert result.exit_code == 3, result.output
    assert "configuration error: cannot reduce" in result.output
    assert f"vertex 0 has label {label!r}" in result.output


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: b.update(legs=[1.5, 2]), "leg must be an integer, got 1.5"),
        (lambda b: b.update(legs="12"), "leg must be an integer, got '1'"),
        (lambda b: b["half_edges"][0].update(vertex=0.7), "half-edge 0 vertex must be an integer, got 0.7"),
        (lambda b: b["half_edges"][1].update(vertex=False), "half-edge 1 vertex must be an integer, got False"),
        (lambda b: b.update(n=3.0), "n must be an integer, got 3.0"),
        (lambda b: b.update(n=True), "n must be an integer, got True"),
        (lambda b: b["matching"][0].__setitem__(0, "h 0"), "bad matching id 'h 0'"),
        (lambda b: b["matching"][1].__setitem__(0, "h+1"), "bad matching id 'h+1'"),
        (lambda b: b["matching"][1].__setitem__(0, "h1_0"), "bad matching id 'h1_0'"),
        (lambda b: b["matching"][1].__setitem__(1, "L\u0662"), "bad matching id 'L\u0662'"),
        (lambda b: b["vertices"][0].update(label="e^1_0"), "unrecognized label factor 'e^1_0'"),
    ],
    ids=[
        "float-leg", "string-legs", "float-vertex", "bool-vertex", "float-n", "bool-n",
        "spaced-id", "signed-id", "underscored-id", "arabic-indic-id", "underscored-exponent",
    ],
)
def test_a_malformed_id_is_a_configuration_error(tmp_path, edit, message):
    blob = graph_json(corolla(3, P1, (1, 2)))
    assert _reduce_blob(tmp_path, blob).exit_code == 0
    edit(blob)
    result = _reduce_blob(tmp_path, blob)
    assert result.exit_code == 3, result.output
    assert message in result.output


def test_a_graph_over_the_half_edge_cap_is_refused_before_reduce(tmp_path, monkeypatch):
    def path_graph(vertices):
        # bivalent p1 vertices in a row between legs 1 and 2
        ends = ["L1"] + [f"h{i}" for i in range(2 * vertices)] + ["L2"]
        return {
            "n": 3,
            "legs": [1, 2],
            "vertices": [{"label": "p1"}] * vertices,
            "half_edges": [{"vertex": i // 2} for i in range(2 * vertices)],
            "matching": [ends[i:i + 2] for i in range(0, len(ends), 2)],
        }

    at_cap = (HALF_EDGE_CAP - 2) // 2
    assert _reduce_blob(tmp_path, path_graph(at_cap)).exit_code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("reduce ran on a graph over the cap")

    monkeypatch.setattr(graphs, "reduce", refuse)
    result = _reduce_blob(tmp_path, path_graph(at_cap + 1))
    assert result.exit_code == 3, result.output
    assert f"over the cap of {HALF_EDGE_CAP}" in result.output


def test_parse_graph_parses_each_distinct_label_once(monkeypatch):
    # 5,000 one-leg p1 vertices: 10,000 ends, under the cap.
    vertices = 5000
    blob = {
        "n": 3,
        "legs": list(range(1, vertices + 1)),
        "vertices": [{"label": "p1"}] * vertices,
        "half_edges": [{"vertex": i} for i in range(vertices)],
        "matching": [[f"h{i}", f"L{i + 1}"] for i in range(vertices)],
    }
    assert 2 * vertices <= HALF_EDGE_CAP
    texts = []
    original = graphs.parse_label

    def counted(text, n):
        texts.append(text)
        return original(text, n)

    monkeypatch.setattr(graphs, "parse_label", counted)
    graph = parse_graph(blob)
    assert texts == ["p1"]
    assert graph.labels == (P1,) * vertices


def test_presentation_audit():
    report = presentation_audit(3, 5)
    assert report["ok"]
    row = [x for x in report["entries"] if x["legs"] == 1 and x["degree"] == 1]
    assert row == [
        {"legs": 1, "degree": 1, "graphs": 1, "partitions": 1, "match": True}
    ]
    assert presentation_audit(1, 1)["ok"]
