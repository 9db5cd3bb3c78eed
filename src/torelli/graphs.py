"""Marked oriented graphs and their contraction calculus.

A graph has totally ordered vertices and half-edges, monomial vertex
labels, legs, and an ordered perfect matching of half-edges and legs.
Contracting an edge merges its endpoints and multiplies their labels;
contracting a loop multiplies the label by e; reorderings contribute
parity signs (per-vertex slot permutations count with multiplicity n,
odd-degree vertices anticommute, and reversing a matched pair costs
the same parity).  Every graph contracts to a signed labelled
partition of its legs, whatever the order of the contractions, so
`reduce` contracts all of them at once: each connected component is
one part, and the sign is the parity of one permutation of the
half-edges and one of the legs.
"""

from __future__ import annotations

from typing import Iterable

from .labels import LabelMonomial, parse_label
from .partitions import _is_number
from .setparts import LabelledPartition, SignedPartitionVector, _perm_parity


# A graph file may hold at most this many half-edges, its legs counted
# as half-edges. `reduce` is one pass, so reading the file and printing
# the result cost as much as the contraction. The slowest shape found is
# many small components: with 12,000 ends in 6,000 univalent p1 vertices,
# one leg each (n = 3), a cold `graph reduce` takes 0.28-0.33 s and
# 27 MiB on a shared 2-vCPU host, and 0.39-0.50 s at 20,000. At 12,000, a
# path of bivalent p1 vertices takes 0.26-0.28 s, one vertex with about
# 6,000 loops 0.19-0.20 s, a random matching of valences 3 to 5 0.25 s.
HALF_EDGE_CAP = 12_000


class ForbiddenResult(ValueError):
    """The contracted partition leaves the requested variant."""


def _integer(value, field: str) -> int:
    """value, when it is an int and not a bool; a ValueError naming field
    otherwise, since int() would read 1.5, "1" or True silently."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _end(tag: str, value: int) -> tuple[str, int]:
    if tag not in ("h", "L"):
        raise ValueError(f"bad matching end tag {tag!r}")
    return (tag, _integer(value, "matching id"))


class MarkedGraph:
    """One presentation of a marked oriented graph.

    half_edge_vertex lists the vertex of each half-edge and must be
    nondecreasing, so the half-edge order refines the vertex order.
    Matching ends are ("h", i) for half-edges and ("L", x) for legs.
    """

    __slots__ = ("n", "legs", "labels", "half_edge_vertex", "matching")

    def __init__(
        self,
        n: int,
        legs: Iterable[int],
        labels: Iterable[LabelMonomial],
        half_edge_vertex: Iterable[int],
        matching: Iterable[tuple],
    ) -> None:
        self.n = _integer(n, "n")
        self.legs = tuple(sorted(_integer(x, "leg") for x in legs))
        if len(set(self.legs)) != len(self.legs):
            raise ValueError("legs must be distinct")
        self.labels = tuple(labels)
        for c in self.labels:
            if not isinstance(c, LabelMonomial) or c.n != self.n:
                raise ValueError("vertex labels must be monomials of matching weight")
        self.half_edge_vertex = tuple(_integer(v, "half-edge vertex") for v in half_edge_vertex)
        prev = 0
        for v in self.half_edge_vertex:
            if v < prev or v >= len(self.labels):
                raise ValueError("incidence must be monotone into the vertex list")
            prev = v
        self.matching = tuple((_end(*a), _end(*b)) for a, b in matching)
        ends = [e for pair in self.matching for e in pair]
        want = [("h", i) for i in range(len(self.half_edge_vertex))]
        want += [("L", x) for x in self.legs]
        if sorted(ends) != sorted(want):
            raise ValueError("matching must pair every half-edge and leg exactly once")
        for i, d in enumerate(self.vertex_degrees()):
            if d <= 0:
                raise ValueError(f"vertex {i} has nonpositive degree {d}")

    def valences(self) -> list[int]:
        out = [0] * len(self.labels)
        for v in self.half_edge_vertex:
            out[v] += 1
        return out

    def vertex_degrees(self) -> list[int]:
        return [
            c.degree + self.n * (val - 2)
            for c, val in zip(self.labels, self.valences())
        ]

    @property
    def degree(self) -> int:
        return sum(self.vertex_degrees())

    def _encoding(self):
        return (
            self.n,
            self.legs,
            tuple(str(c) for c in self.labels),
            self.half_edge_vertex,
            self.matching,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkedGraph):
            return NotImplemented
        return self._encoding() == other._encoding()

    def __hash__(self) -> int:
        return hash(self._encoding())

    def __repr__(self) -> str:
        labels = ",".join(str(c) for c in self.labels)
        return f"MarkedGraph(n={self.n}, legs={self.legs}, labels=[{labels}])"


def parse_graph(data) -> MarkedGraph:
    """Read the JSON graph format, refusing more than HALF_EDGE_CAP
    half-edges and legs before anything is built."""
    if isinstance(data, str):
        import json

        data = json.loads(data)
    ends = len(data["half_edges"]) + len(data["legs"])
    if ends > HALF_EDGE_CAP:
        raise ValueError(
            f"the graph has {ends} half-edges and legs, over the cap of {HALF_EDGE_CAP}"
        )
    n = _integer(data["n"], "n")
    labels = []
    parsed: dict[str, LabelMonomial] = {}
    for i, v in enumerate(data["vertices"]):
        text = v["label"]
        if not isinstance(text, str):
            raise ValueError(f"vertex {i} has label {text!r}, not a string")
        if text not in parsed:
            parsed[text] = parse_label(text, n)
        labels.append(parsed[text])
    hev = [_integer(h["vertex"], f"half-edge {i} vertex") for i, h in enumerate(data["half_edges"])]

    def end(text: str) -> tuple[str, int]:
        if text[:1] in ("h", "L") and _is_number(text[1:]):
            return (text[0], int(text[1:]))
        raise ValueError(f"bad matching id {text!r}")

    matching = [(end(a), end(b)) for a, b in data["matching"]]
    return MarkedGraph(n, data["legs"], labels, hev, matching)


def reduce(graph: MarkedGraph, variant: str = "P0") -> SignedPartitionVector:
    """Contract all internal edges and loops down to a labelled partition.

    One pass over the matching: a union-find joins the ends of every
    half-edge pair, and a pair whose ends are already joined is a loop.
    Each component becomes one part, labelled by the product of its
    vertex labels times e^loops, holding the legs matched to its
    half-edges; each leg-leg pair becomes a unit-labelled part of two.

    For even n the sign is +1: label degrees are even, so no step of the
    calculus changes it. For odd n every reordering is a permutation of
    the half-edges, a vertex moving as the block of its slots.
    Contracting a pair moves its ends together, in the order written, and
    deletes them; a block of two commutes with everything, so all the
    contractions, in any order, cost the parity of the word of the
    half-edge pairs as written followed by the remaining half-edges. The
    partition then reads the legs these meet, then the leg-leg pairs,
    against the sorted legs, and a half-edge-leg pair written leg first
    costs -1. Taking the remaining half-edges sorted by leg changes both
    parities alike.
    """
    n = graph.n
    vertex = graph.half_edge_vertex
    parent = list(range(len(graph.labels)))
    loops = [0] * len(parent)

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    word: list[int] = []
    leg_of: dict[int, int] = {}
    leg_pairs: list[int] = []
    flips = 0
    for a, b in graph.matching:
        if a[0] == b[0] == "h":
            word += (a[1], b[1])
            u, v = find(vertex[a[1]]), find(vertex[b[1]])
            if u == v:
                loops[u] += 1
            else:
                parent[u] = v
                loops[v] += loops[u]
        elif a[0] == b[0]:
            leg_pairs += (a[1], b[1])
        else:
            if a[0] == "L":
                a, b = b, a
                flips += 1
            leg_of[a[1]] = b[1]
    kept = sorted(leg_of, key=leg_of.__getitem__)
    sign = 1
    if n % 2:
        legs = [leg_of[h] for h in kept] + leg_pairs
        sign = (-1) ** (flips + _perm_parity(word + kept) + _perm_parity(legs))
    parts: dict[int, list] = {}
    for v, label in enumerate(graph.labels):
        root = find(v)
        if root in parts:
            parts[root][1] *= label
        else:
            parts[root] = [[], label * LabelMonomial.e(n, loops[root]) if loops[root] else label]
    for h in kept:
        parts[find(vertex[h])][0].append(leg_of[h])
    units = [(leg_pairs[i:i + 2], LabelMonomial.unit(n)) for i in range(0, len(leg_pairs), 2)]
    partition = LabelledPartition(n, list(parts.values()) + units)
    if not partition.in_variant(variant):
        raise ForbiddenResult(f"reduced partition {partition} leaves variant {variant}")
    return SignedPartitionVector(n, graph.legs, {partition: sign})
