"""Marked oriented graphs and their contraction calculus.

A graph has totally ordered vertices and half-edges, monomial vertex
labels, legs, and an ordered perfect matching of half-edges and legs.
Contracting an edge merges its endpoints and multiplies their labels;
contracting a loop multiplies the label by e; reorderings contribute
parity signs (per-vertex slot permutations count with multiplicity n,
odd-degree vertices anticommute, and reversing a matched pair costs
the same parity).  Every graph contracts to a signed labelled
partition of its legs.
"""

from __future__ import annotations

from typing import Iterable

from .labels import LabelMonomial, parse_label
from .setparts import LabelledPartition, SignedPartitionVector, _perm_parity


# A graph file may hold at most this many half-edges, its legs counted
# as half-edges. Contraction is not linear: one vertex with many loops is
# the slowest shape found, quadratic in its valence, since each loop
# contracted rescans the vertex's slots. With 318 loops and 2 legs (640
# in all, n = 3) a cold `graph reduce` takes 0.12-0.17 s on a shared
# 2-vCPU host, as does a path of 319 bivalent p1 vertices between 2 legs
# (also 640); in process, 2,400 loops take about 3 s.
HALF_EDGE_CAP = 640


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
        for i, val in enumerate(self.valences()):
            d = self.labels[i].degree + self.n * (val - 2)
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "legs": list(self.legs),
            "vertices": [{"label": str(c)} for c in self.labels],
            "half_edges": [{"vertex": v} for v in self.half_edge_vertex],
            "matching": [
                [f"{tag}{val}" for tag, val in pair] for pair in self.matching
            ],
        }



def corolla(n: int, label: LabelMonomial, legs: Iterable[int]) -> MarkedGraph:
    """Single vertex with its slots matched to the given legs in order."""
    legs = tuple(legs)
    matching = [(("h", i), ("L", x)) for i, x in enumerate(legs)]
    return MarkedGraph(n, legs, [label], [0] * len(legs), matching)


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
    for i, v in enumerate(data["vertices"]):
        if not isinstance(v["label"], str):
            raise ValueError(f"vertex {i} has label {v['label']!r}, not a string")
        labels.append(parse_label(v["label"], n))
    hev = [_integer(h["vertex"], f"half-edge {i} vertex") for i, h in enumerate(data["half_edges"])]

    def end(text: str) -> tuple[str, int]:
        if text[:1] in ("h", "L"):
            return (text[0], int(text[1:]))
        raise ValueError(f"bad matching id {text!r}")

    matching = [(end(a), end(b)) for a, b in data["matching"]]
    return MarkedGraph(n, data["legs"], labels, hev, matching)


class _Work:
    """Mutable graph with incremental sign tracking.

    Half-edges keep their original ids; the current half-edge order is
    the concatenation of the per-vertex slot lists.  Every mutation
    multiplies the running sign by the factor relating the old
    presentation to the new one.
    """

    def __init__(self, graph: MarkedGraph) -> None:
        self.n = graph.n
        self.legs = graph.legs
        self.labels: list[LabelMonomial] = list(graph.labels)
        self.slots: list[list[int]] = [
            [h for h, v in enumerate(graph.half_edge_vertex) if v == i]
            for i in range(len(graph.labels))
        ]
        self.pairs: list[list[tuple[str, int]]] = [
            [a, b] for a, b in graph.matching
        ]
        self.sign = 1

    def owner(self, hid: int) -> int:
        for i, fiber in enumerate(self.slots):
            if hid in fiber:
                return i
        raise ValueError(f"half-edge {hid} not found")

    def degree(self, i: int) -> int:
        return self.labels[i].degree + self.n * (len(self.slots[i]) - 2)

    def flip_pair(self, idx: int) -> None:
        self.pairs[idx].reverse()
        if self.n % 2:
            self.sign = -self.sign

    def arrange_slots(self, v: int, target: list[int]) -> None:
        cur = self.slots[v]
        if sorted(cur) != sorted(target):
            raise ValueError("slot rearrangement must be a permutation")
        position = {h: i for i, h in enumerate(cur)}
        if self.n % 2 and _perm_parity([position[h] for h in target]):
            self.sign = -self.sign
        self.slots[v] = list(target)

    def move_vertex(self, i: int, j: int) -> None:
        """Move the vertex at position i to position j of the shortened
        list, anticommuting past odd-degree vertices."""
        if i == j:
            return
        odd_i = self.degree(i) % 2
        lab = self.labels.pop(i)
        slo = self.slots.pop(i)
        lo, hi = (j, i) if j < i else (i, j)
        if odd_i:
            crossed = sum(1 for k in range(lo, hi) if self.degree(k) % 2)
            if crossed % 2:
                self.sign = -self.sign
        self.labels.insert(j, lab)
        self.slots.insert(j, slo)

    def contract_pair(self, idx: int) -> None:
        """Contract one matched pair of half-edges (edge or loop)."""
        a, b = self.pairs[idx]
        if a[0] != "h" or b[0] != "h":
            raise ValueError("can only contract half-edge pairs")
        u, v = self.owner(a[1]), self.owner(b[1])
        if u == v:
            rest = [h for h in self.slots[u] if h not in (a[1], b[1])]
            self.arrange_slots(u, [a[1], b[1]] + rest)
            self.slots[u] = rest
            self.labels[u] = self.labels[u] * LabelMonomial.e(self.n)
            del self.pairs[idx]
            return
        if u > v:
            self.flip_pair(idx)
            a, b = self.pairs[idx]
            u, v = v, u
        rest_u = [h for h in self.slots[u] if h != a[1]]
        self.arrange_slots(u, rest_u + [a[1]])
        rest_v = [h for h in self.slots[v] if h != b[1]]
        self.arrange_slots(v, [b[1]] + rest_v)
        self.move_vertex(v, u + 1)
        self.labels[u] = self.labels[u] * self.labels[u + 1]
        self.slots[u] = rest_u + rest_v
        del self.labels[u + 1]
        del self.slots[u + 1]
        del self.pairs[idx]


def reduce(graph: MarkedGraph, variant: str = "P0", _rng=None) -> SignedPartitionVector:
    """Contract all internal edges and loops down to a labelled partition.

    After contraction the orientation word lists each slot's partner
    leg in half-edge order and then the leg-leg pairs in matching
    order; its parity against the sorted legs contributes the final
    sign (with multiplicity n).  `_rng` picks the edge to contract at
    each step, so that tests can check the order does not matter.
    """
    n = graph.n
    w = _Work(graph)
    while True:
        hh = [i for i, (a, b) in enumerate(w.pairs) if a[0] == "h" and b[0] == "h"]
        if not hh:
            break
        w.contract_pair(hh[0] if _rng is None else _rng.choice(hh))
    for idx, (a, b) in enumerate(w.pairs):
        if a[0] == "L" and b[0] == "h":
            w.flip_pair(idx)
    leg_of = {a[1]: b[1] for a, b in w.pairs if a[0] == "h"}
    word = [leg_of[h] for fiber in w.slots for h in fiber]
    ll = [(a[1], b[1]) for a, b in w.pairs if a[0] == "L" and b[0] == "L"]
    for pa, pb in ll:
        word.extend((pa, pb))
    if n % 2 and _perm_parity(word):
        w.sign = -w.sign
    parts = [
        (tuple(leg_of[h] for h in fiber), w.labels[i])
        for i, fiber in enumerate(w.slots)
    ]
    parts += [((pa, pb), LabelMonomial.unit(n)) for pa, pb in ll]
    partition = LabelledPartition(n, parts)
    if not partition.in_variant(variant):
        raise ForbiddenResult(f"reduced partition {partition} leaves variant {variant}")
    return SignedPartitionVector(n, graph.legs, {partition: w.sign})
