"""Test oracle for the graph calculus: an independent route, not used by the package.

`torelli.graphs.reduce` contracts every edge of a marked graph down to a
labelled partition in one pass.  This module keeps the slower checks
that route is compared against:

- `contract_in_order`, the sequential contraction on a mutable `_Work`
  graph, one half-edge pair at a time in matching order or in an order
  a random generator picks, with the sign tracked at every step;
- `canonical`, a brute-force minimal relabelling of a graph over all
  vertex and slot orders, with the sign relating the two presentations;
  `compare_sign` and `SignedGraphVector` read graphs through it;
- `reduce_trivalent`, which rewrites a cubic graph into caterpillar
  trees through the rewiring, loop and leaf moves alone, never
  contracting an edge; contracting its result with `reduce_vector`
  must give what `reduce` gives for the graph itself;
- `presentation_audit`, which counts low-degree graphs against the
  labelled-partition basis.

It also builds the graphs that tests/test_graphs.py and acceptance
criterion 8 both check.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Iterable

from torelli.graphs import ForbiddenResult, MarkedGraph, reduce
from torelli.labels import LabelMonomial, parse_label
from basis_oracle import enumerate_basis, labels_up_to
from torelli.setparts import LabelledPartition, SignedPartitionVector, _perm_parity


class NonTrivalentInput(ValueError):
    """Cubic rewriting needs valences 0, 1, 3 with unit cubic labels."""


def _end_key(end: tuple[str, int]):
    return (0, end[1]) if end[0] == "L" else (1, end[1])


def is_trivalent_mode(graph: MarkedGraph) -> bool:
    for c, val in zip(graph.labels, graph.valences()):
        if val == 2 or val > 3:
            return False
        if val == 3 and not c.is_unit():
            return False
    return True


def canonical(graph: MarkedGraph) -> tuple[MarkedGraph | None, int]:
    """Minimal relabelling of a graph, and the sign relating them.

    The original class equals sign times the canonical one.  Returns
    (None, 0) when some relabelling reverses orientation, so the
    class is zero.
    """
    degrees = graph.vertex_degrees()
    valences = graph.valences()
    nverts = len(graph.labels)
    fibers = [
        [h for h, v in enumerate(graph.half_edge_vertex) if v == i]
        for i in range(nverts)
    ]
    groups: dict = {}
    for i in range(nverts):
        groups.setdefault(
            (degrees[i], graph.labels[i].sort_key(), valences[i]), []
        ).append(i)
    group_keys = sorted(groups)

    best = None
    best_signs: set[int] = set()
    for choice in product(*(permutations(groups[k]) for k in group_keys)):
        order = [i for block in choice for i in block]
        odd = [i for i in order if degrees[i] % 2]
        koszul = -1 if _perm_parity(odd) else 1
        for fiber_choice in product(
            *(permutations(fibers[i]) for i in order)
        ):
            sign = koszul
            if graph.n % 2:
                for pos, perm in enumerate(fiber_choice):
                    base = fibers[order[pos]]
                    if _perm_parity([base.index(h) for h in perm]):
                        sign = -sign
            new_id = {h: k for k, h in enumerate(h for perm in fiber_choice for h in perm)}
            pairs = []
            for a, b in graph.matching:
                na = ("h", new_id[a[1]]) if a[0] == "h" else a
                nb = ("h", new_id[b[1]]) if b[0] == "h" else b
                if _end_key(na) > _end_key(nb):
                    na, nb = nb, na
                    if graph.n % 2:
                        sign = -sign
                pairs.append((na, nb))
            pairs.sort(key=lambda p: (_end_key(p[0]), _end_key(p[1])))
            enc = (
                tuple(str(graph.labels[i]) for i in order),
                tuple(len(fibers[i]) for i in order),
                tuple(pairs),
            )
            if best is None or enc < best:
                best = enc
                best_signs = {sign}
            elif enc == best:
                best_signs.add(sign)
    if best_signs == {1, -1}:
        return None, 0
    sign = best_signs.pop()
    labels_s, fiber_sizes, pairs = best
    hev = [i for i, size in enumerate(fiber_sizes) for _ in range(size)]
    canon = MarkedGraph(
        graph.n,
        graph.legs,
        [parse_label(s, graph.n) for s in labels_s],
        hev,
        pairs,
    )
    return canon, sign


class SignedGraphVector:
    """Rational combination of graphs, keyed by canonical form."""

    __slots__ = ("n", "legs", "coeffs")

    def __init__(self, n: int, legs: Iterable[int]) -> None:
        self.n = int(n)
        self.legs = tuple(sorted(legs))
        self.coeffs: dict[MarkedGraph, Fraction] = {}

    def add(self, graph: MarkedGraph, coeff) -> "SignedGraphVector":
        if graph.n != self.n or graph.legs != self.legs:
            raise ValueError("graph does not match the vector's legs")
        canon, sign = canonical(graph)
        if canon is None:
            return self
        c = self.coeffs.get(canon, Fraction(0)) + sign * Fraction(coeff)
        if c:
            self.coeffs[canon] = c
        else:
            self.coeffs.pop(canon, None)
        return self

    def items(self) -> list[tuple[MarkedGraph, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0]._encoding())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedGraphVector):
            return NotImplemented
        return (self.n, self.legs, self.coeffs) == (
            other.n,
            other.legs,
            other.coeffs,
        )

    def __repr__(self) -> str:
        return f"SignedGraphVector({len(self.coeffs)} graphs on {self.legs})"


def compare_sign(first: MarkedGraph, second: MarkedGraph):
    """Sign relating two presentations, None when not isomorphic."""
    c1, s1 = canonical(first)
    c2, s2 = canonical(second)
    if c1 is None or c2 is None or c1 != c2:
        return None
    return s1 * s2


def reduce_vector(vec: SignedGraphVector, variant: str = "P0") -> SignedPartitionVector:
    """Contract every graph of a vector with `torelli.graphs.reduce`."""
    coeffs: dict[LabelledPartition, Fraction] = {}
    for graph, coeff in vec.items():
        for part, c in reduce(graph, variant).coeffs.items():
            coeffs[part] = coeffs.get(part, Fraction(0)) + coeff * c
    return SignedPartitionVector(vec.n, vec.legs, coeffs)


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


def contract_in_order(graph: MarkedGraph, variant: str = "P0", rng=None) -> SignedPartitionVector:
    """The sequential reference for `torelli.graphs.reduce`: contract one
    half-edge pair at a time on a `_Work`, the first left in the
    matching or one that rng picks, tracking the sign at every step.

    After contraction the orientation word lists each slot's partner
    leg in half-edge order and then the leg-leg pairs in matching
    order; its parity against the sorted legs contributes the final
    sign (with multiplicity n).
    """
    n = graph.n
    w = _Work(graph)
    while True:
        hh = [i for i, (a, b) in enumerate(w.pairs) if a[0] == "h" and b[0] == "h"]
        if not hh:
            break
        w.contract_pair(hh[0] if rng is None else rng.choice(hh))
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


class _CubicWork(_Work):
    """The contraction's working graph, with the lookups the cubic moves
    need and a way back to a `MarkedGraph`."""

    def partner(self, hid: int) -> tuple[str, int]:
        for a, b in self.pairs:
            if a == ("h", hid):
                return tuple(b)
            if b == ("h", hid):
                return tuple(a)
        raise ValueError(f"half-edge {hid} unmatched")

    def pair_index(self, hid: int) -> int:
        for idx, (a, b) in enumerate(self.pairs):
            if ("h", hid) in (a, b):
                return idx
        raise ValueError(f"half-edge {hid} unmatched")

    def to_graph(self) -> MarkedGraph:
        new_id = {h: k for k, h in enumerate(h for fiber in self.slots for h in fiber)}
        hev = [i for i, fiber in enumerate(self.slots) for _ in fiber]
        pairs = [
            tuple(("h", new_id[end[1]]) if end[0] == "h" else tuple(end) for end in pair)
            for pair in self.pairs
        ]
        return MarkedGraph(self.n, self.legs, self.labels, hev, pairs)


def _h_move(w: _CubicWork, pair_idx: int, give_hid: int, take_hid: int) -> None:
    """Rewire across one internal edge: give_hid crosses to the other
    endpoint and take_hid crosses back.  Both endpoints stay cubic."""
    a, b = w.pairs[pair_idx]
    pu, pv = w.owner(a[1]), w.owner(b[1])
    if pu > pv:
        w.flip_pair(pair_idx)
        a, b = w.pairs[pair_idx]
        pu, pv = pv, pu
    w.move_vertex(pv, pu + 1)
    pv = pu + 1
    x, y = a[1], b[1]
    if give_hid in w.slots[pv]:
        give_hid, take_hid = take_hid, give_hid
    v1 = next(h for h in w.slots[pu] if h not in (x, give_hid))
    w.arrange_slots(pu, [v1, give_hid, x])
    v6 = next(h for h in w.slots[pv] if h not in (y, take_hid))
    w.arrange_slots(pv, [y, take_hid, v6])
    w.slots[pu] = [v1, take_hid, x]
    w.slots[pv] = [y, v6, give_hid]


def _delta(w: _CubicWork, pair_idx: int) -> None:
    """Replace a loop at a cubic unit vertex by the label e."""
    a, b = w.pairs[pair_idx]
    v = w.owner(a[1])
    v1 = next(h for h in w.slots[v] if h not in (a[1], b[1]))
    w.arrange_slots(v, [v1, a[1], b[1]])
    w.slots[v] = [v1]
    w.labels[v] = LabelMonomial.e(w.n)
    del w.pairs[pair_idx]


def _gamma(w: _CubicWork, t: int, xv: int, yv: int) -> None:
    """Absorb two labelled leaves at a cubic vertex into one label."""
    hx = w.slots[xv][0]
    hy = w.slots[yv][0]
    ix = w.pair_index(hx)
    if w.pairs[ix][0] == ("h", hx):
        w.flip_pair(ix)
    iy = w.pair_index(hy)
    if w.pairs[iy][0] == ("h", hy):
        w.flip_pair(iy)
    hi = w.pairs[ix][0][1]
    hj = w.pairs[iy][0][1]
    v1 = next(h for h in w.slots[t] if h not in (hi, hj))
    w.arrange_slots(t, [v1, hj, hi])
    w.move_vertex(xv, t + 1 if xv > t else t)
    t = w.owner(hi)
    yv = w.owner(hy)
    w.move_vertex(yv, t + 2 if yv > t else t + 1)
    t = w.owner(hi)
    w.labels[t] = w.labels[t + 1] * w.labels[t + 2]
    w.slots[t] = [v1]
    for pos in (t + 2, t + 1):
        del w.labels[pos]
        del w.slots[pos]
    for idx in sorted((w.pair_index(hx), w.pair_index(hy)), reverse=True):
        del w.pairs[idx]


def _beta(w: _CubicWork, xv: int, yv: int) -> None:
    """Merge an edge between two labelled leaves into one closed label."""
    if xv > yv:
        xv, yv = yv, xv
    hx = w.slots[xv][0]
    idx = w.pair_index(hx)
    if w.pairs[idx][0] != ("h", hx):
        w.flip_pair(idx)
    w.move_vertex(yv, xv + 1)
    w.labels[xv] = w.labels[xv] * w.labels[xv + 1]
    w.slots[xv] = []
    del w.labels[xv + 1]
    del w.slots[xv + 1]
    del w.pairs[idx]


def _adjacency(w: _CubicWork) -> dict[int, list[tuple[int, int, int]]]:
    """Internal-edge adjacency: vertex position to a list of (pair
    index, own half-edge, other endpoint)."""
    adj: dict[int, list[tuple[int, int, int]]] = {
        i: [] for i in range(len(w.labels))
    }
    for idx, (a, b) in enumerate(w.pairs):
        if a[0] == "h" and b[0] == "h":
            u, v = w.owner(a[1]), w.owner(b[1])
            adj[u].append((idx, a[1], v))
            adj[v].append((idx, b[1], u))
    return adj


def _bfs(adj: dict, start: int, skip: int | None = None) -> dict:
    """Breadth-first search over the internal edges other than pair
    index skip: each vertex reached maps to (previous vertex, step),
    and start maps to None."""
    prev: dict[int, tuple | None] = {start: None}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for step in adj[cur]:
            if step[0] != skip and step[2] not in prev:
                prev[step[2]] = (cur, step)
                queue.append(step[2])
    return prev


def _find_cycle(w: _CubicWork):
    """Shortest internal cycle, as (vertex list, index of the edge
    joining its first and last vertices), or (None, None)."""
    for idx, (a, b) in enumerate(w.pairs):
        if a[0] == "h" and b[0] == "h" and w.owner(a[1]) == w.owner(b[1]):
            return [w.owner(a[1])], idx
    adj = _adjacency(w)
    best = None
    for idx, (a, b) in enumerate(w.pairs):
        if a[0] != "h" or b[0] != "h":
            continue
        u, v = w.owner(a[1]), w.owner(b[1])
        prev = _bfs(adj, u, skip=idx)
        if v in prev:
            path = [v]
            while path[-1] != u:
                path.append(prev[path[-1]][0])
            cand = (len(path), tuple(path), idx)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None, None
    return list(best[1]), best[2]


def _path(w: _CubicWork, start: int, goal: int) -> list[tuple[int, int, int]]:
    """Edge steps from start to goal: (pair index, half-edge at the
    current vertex, next vertex)."""
    prev = _bfs(_adjacency(w), start)
    if goal not in prev:
        raise ValueError("vertices are not connected")
    steps = []
    cur = goal
    while prev[cur] is not None:
        cur, step = prev[cur]
        steps.append(step)
    return steps[::-1]


def _move_leaf_step(w: _CubicWork, leaf_hid: int, target: int, protect=()) -> None:
    """One rewiring step carrying the subtree at leaf_hid toward target."""
    steps = _path(w, w.owner(leaf_hid), target)
    pair_idx, _, nxt = steps[0]
    onward = {s[1] for s in steps[1:2]}
    a, b = w.pairs[pair_idx]
    other = a[1] if w.owner(a[1]) == nxt else b[1]
    candidates = [
        h
        for h in w.slots[nxt]
        if h != other and h not in protect and h not in onward
    ]
    _h_move(w, pair_idx, leaf_hid, min(candidates))


def _components(w: _CubicWork) -> list[dict]:
    adj = _adjacency(w)
    seen: set[int] = set()
    comps = []
    for start in range(len(w.labels)):
        if start in seen:
            continue
        stack = [start]
        verts = []
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            verts.append(cur)
            stack.extend(other for _, _, other in adj[cur] if other not in seen)
        legs = []
        for v in verts:
            for h in w.slots[v]:
                p = w.partner(h)
                if p[0] == "L":
                    legs.append(p[1])
        comps.append({"verts": sorted(verts), "legs": sorted(legs)})
    return comps


def _labelled_leaves(w: _CubicWork, comp: dict) -> list[int]:
    return [
        v
        for v in comp["verts"]
        if len(w.slots[v]) == 1 and not w.labels[v].is_unit()
    ]


def reduce_trivalent(graph: MarkedGraph) -> SignedGraphVector:
    """Rewrite a cubic graph into standard trees.

    Cycles shorten through the rewiring relation until they are loops,
    loops become e labels, labelled leaves are carried together and
    absorbed pairwise, and each component is combed into the
    caterpillar whose legs increase along the spine, a labelled leaf
    coming last.
    """
    if not is_trivalent_mode(graph):
        raise NonTrivalentInput(
            "graphs must have valences 0, 1, 3 with unit labels at valence 3"
        )
    w = _CubicWork(graph)
    _eliminate_cycles(w)
    _absorb_labels(w)
    _comb(w)
    return SignedGraphVector(graph.n, graph.legs).add(w.to_graph(), w.sign)


def _eliminate_cycles(w: _CubicWork) -> None:
    for _ in range(10_000):
        cycle, pair_idx = _find_cycle(w)
        if cycle is None:
            return
        if len(cycle) == 1:
            _delta(w, pair_idx)
            continue
        first, last = cycle[0], cycle[-1]
        a, b = w.pairs[pair_idx]
        h_at_last = a[1] if w.owner(a[1]) == last else b[1]
        adj = _adjacency(w)
        give = next(
            h
            for idx, h, other in adj[first]
            if other == cycle[1] and idx != pair_idx
        )
        keep = next(
            h
            for idx, h, other in adj[last]
            if other == cycle[-2] and idx != pair_idx
        )
        take = next(h for h in w.slots[last] if h not in (keep, h_at_last))
        _h_move(w, pair_idx, give, take)
    raise RuntimeError("cycle elimination did not terminate")


def _attach(w: _CubicWork, leaf_vertex: int) -> int:
    return w.owner(w.partner(w.slots[leaf_vertex][0])[1])


def _absorb_labels(w: _CubicWork) -> None:
    for _ in range(10_000):
        progress = False
        for a, b in list(w.pairs):
            if a[0] != "h" or b[0] != "h":
                continue
            u, v = w.owner(a[1]), w.owner(b[1])
            if u != v and len(w.slots[u]) == 1 and len(w.slots[v]) == 1:
                _beta(w, u, v)
                progress = True
                break
        if progress:
            continue
        for t in range(len(w.labels)):
            if len(w.slots[t]) != 3:
                continue
            nbrs = []
            for h in w.slots[t]:
                p = w.partner(h)
                if p[0] == "h" and len(w.slots[w.owner(p[1])]) == 1:
                    nbrs.append(w.owner(p[1]))
            if len(nbrs) >= 2:
                nbrs.sort(key=lambda v: w.labels[v].sort_key())
                _gamma(w, t, nbrs[0], nbrs[1])
                progress = True
                break
        if progress:
            continue
        for comp in _components(w):
            leaves = _labelled_leaves(w, comp)
            if len(leaves) >= 2:
                leaves.sort(key=lambda v: w.labels[v].sort_key())
                xv, yv = leaves[0], leaves[1]
                _move_leaf_step(
                    w,
                    w.partner(w.slots[xv][0])[1],
                    _attach(w, yv),
                    protect=(w.partner(w.slots[yv][0])[1],),
                )
                progress = True
                break
        if not progress:
            return
    raise RuntimeError("leaf absorption did not terminate")


def _leaf_hid(w: _CubicWork, leaf) -> int:
    """The cubic-side half-edge holding a leaf (a leg or a labelled
    univalent vertex)."""
    kind, val = leaf
    if kind == "leg":
        for a, b in w.pairs:
            if a == ("L", val) and b[0] == "h":
                return b[1]
            if b == ("L", val) and a[0] == "h":
                return a[1]
        raise ValueError(f"leg {val} has no cubic attachment")
    return w.partner(w.slots[val][0])[1]


def _dist(w: _CubicWork, u: int, v: int) -> int:
    return 0 if u == v else len(_path(w, u, v))


def _spine_out(w: _CubicWork, vertex: int, placed_hid: int, anchor_hid: int) -> int:
    """The half-edge continuing the spine past this vertex."""
    anchored = {placed_hid}
    u = w.owner(anchor_hid)
    if u == vertex:
        anchored.add(anchor_hid)
    else:
        for idx, h, other in _adjacency(w)[vertex]:
            if other == u:
                anchored.add(h)
    return next(h for h in w.slots[vertex] if h not in anchored)


def _comb(w: _CubicWork) -> None:
    """Comb every treelike component into the sorted caterpillar.

    Combing moves vertices, so each component is found again by its
    legs; one without legs has at most one labelled leaf after
    absorption, so it holds no cubic vertex.
    """
    for legs in [comp["legs"] for comp in _components(w)]:
        comp = next(c for c in _components(w) if c["legs"] == legs)
        if not any(len(w.slots[v]) == 3 for v in comp["verts"]):
            continue
        leaves = [("leg", x) for x in comp["legs"]]
        leaves += [("lab", v) for v in _labelled_leaves(w, comp)]
        leaves.sort(key=lambda t: (0, t[1]) if t[0] == "leg" else (1,))
        anchor_hid = _leaf_hid(w, leaves[0])
        for j in range(1, len(leaves) - 1):
            hid = _leaf_hid(w, leaves[j])
            target = w.owner(anchor_hid)
            guard = 0
            while (
                w.owner(hid) != target and _dist(w, w.owner(hid), target) > 1
            ):
                _move_leaf_step(w, hid, target, protect=(anchor_hid,))
                guard += 1
                if guard > 10_000:
                    raise RuntimeError("combing did not terminate")
            if j == 1 and w.owner(hid) != target:
                _move_leaf_step(w, hid, target, protect=(anchor_hid,))
            anchor_hid = _spine_out(w, w.owner(hid), hid, anchor_hid)


def presentation_audit(n: int, degree_cap: int, legs_cap: int = 3) -> dict:
    """Check that low-degree graphs biject with labelled partitions.

    Enumerates edge, cubic, and lollipop components whose ends are legs
    or p-generator leaves, contracts each union, and compares against
    the partition basis with the bare size-zero p-labels struck.
    """
    if degree_cap >= 2 * n:
        raise ValueError("the correspondence only holds below twice the weight")
    entries = []
    ok = True
    for q in range(legs_cap + 1):
        by_degree: dict[int, list[MarkedGraph]] = {}
        for graph in _audit_graphs(n, q, degree_cap):
            by_degree.setdefault(graph.degree, []).append(graph)
        quotient: dict[int, set[LabelledPartition]] = {}
        for part in enumerate_basis(q, n, "P0", degree_cap):
            if any(
                not elems
                and label.e_exp == 0
                and len(label.p_exps) == 1
                and label.p_exps[0][1] == 1
                for elems, label in part.parts
            ):
                continue
            quotient.setdefault(part.degree, set()).add(part)
        for d in range(degree_cap + 1):
            graphs = by_degree.get(d, [])
            reduced = set()
            for graph in graphs:
                ((part, _),) = reduce(graph).items()
                reduced.add(part)
            expected = quotient.get(d, set())
            match = reduced == expected and len(reduced) == len(graphs)
            ok = ok and match
            entries.append(
                {
                    "legs": q,
                    "degree": d,
                    "graphs": len(graphs),
                    "partitions": len(expected),
                    "match": match,
                }
            )
    return {"n": n, "degree_cap": degree_cap, "entries": entries, "ok": ok}


def _p_generators(n: int, max_degree: int) -> list[LabelMonomial]:
    out = []
    i = (n + 4) // 4
    while 4 * i <= max_degree and i <= n - 1:
        out.append(LabelMonomial.p(n, i))
        i += 1
    return out


def _audit_graphs(n: int, q: int, cap: int) -> list[MarkedGraph]:
    """Disjoint unions of edge, cubic, and lollipop components on q legs
    with total degree at most cap."""
    pgens = _p_generators(n, cap + 2 * n)
    legs = tuple(range(1, q + 1))

    # an edge joins two ends; a cubic vertex has three; a lollipop is a
    # cubic vertex with a loop and one end
    comps: list[tuple[int, tuple]] = []
    for kind, arity, base in (("edge", 2, 0), ("cubic", 3, n), ("lollipop", 1, n)):
        for r in range(min(q, arity) + 1):
            for leg_choice in combinations(legs, r):
                for ps in combinations_with_replacement(pgens, arity - r):
                    d = base + sum(p.degree - n for p in ps)
                    if 0 <= d <= cap:
                        comps.append((d, (kind, leg_choice, ps)))

    results: list[MarkedGraph] = []

    def rec(remaining: tuple, budget: int, acc: list, start: int) -> None:
        if not remaining:
            results.append(_build_audit_graph(n, q, acc))
        for idx in range(start, len(comps)):
            d, spec = comps[idx]
            used = spec[1]
            if d > budget or not set(used) <= set(remaining):
                continue
            if used:
                rest = tuple(x for x in remaining if x not in used)
                rec(rest, budget - d, acc + [spec], 0)
            else:
                rec(remaining, budget - d, acc + [spec], idx)

    rec(legs, cap, [], 0)
    seen = set()
    unique = []
    for graph in results:
        key = canonical(graph)[0]
        if key not in seen:
            seen.add(key)
            unique.append(graph)
    return unique


def _build_audit_graph(n: int, q: int, specs: list) -> MarkedGraph:
    labels: list[LabelMonomial] = []
    hev: list[int] = []
    matching: list[tuple] = []

    def new_vertex(label: LabelMonomial, valence: int) -> list[int]:
        idx = len(labels)
        labels.append(label)
        start = len(hev)
        hev.extend([idx] * valence)
        return list(range(start, start + valence))

    for kind, leg_choice, ps in specs:
        ends: list[tuple] = [("L", x) for x in leg_choice]
        if kind != "edge":
            hs = new_vertex(LabelMonomial.unit(n), 3)
        for p in ps:
            (h,) = new_vertex(p, 1)
            ends.append(("h", h))
        if kind == "edge":
            matching.append((ends[0], ends[1]))
        elif kind == "cubic":
            for slot, end in zip(hs, ends):
                matching.append((("h", slot), end))
        else:
            matching.append((("h", hs[0]), ("h", hs[1])))
            matching.append((("h", hs[2]), ends[0]))
    return MarkedGraph(n, range(1, q + 1), labels, hev, matching)


def random_graph(rng, n: int, leaf_labels) -> MarkedGraph | None:
    """Up to three cubic unit vertices, up to two leaves labelled from
    leaf_labels (one more when the ends are odd in number) and up to
    four legs, matched at random; None when no graph results."""
    q = rng.randrange(0, 5)
    k = rng.randrange(0, 4)
    m = rng.randrange(0, 3)
    labels = [LabelMonomial.unit(n)] * k
    hev = [i for i in range(k) for _ in range(3)]
    for j in range(m):
        labels.append(rng.choice(leaf_labels))
        hev.append(k + j)
    pool = [("h", i) for i in range(len(hev))] + [("L", x) for x in range(1, q + 1)]
    if len(pool) % 2:
        labels.append(rng.choice(leaf_labels))
        hev.append(len(labels) - 1)
        pool.append(("h", len(hev) - 1))
    if not pool:
        return None
    rng.shuffle(pool)
    matching = [(pool[2 * i], pool[2 * i + 1]) for i in range(len(pool) // 2)]
    try:
        return MarkedGraph(n, range(1, q + 1), labels, hev, matching)
    except ValueError:
        return None


def random_general_graph(rng, n: int) -> MarkedGraph | None:
    """Up to five vertices of valence 0 to 5 with labels of degree at
    most 4 n + 2 and up to five legs, matched at random; None when the
    ends are odd in number or a vertex has nonpositive degree."""
    valences = [rng.randrange(0, 6) for _ in range(rng.randrange(0, 6))]
    q = rng.randrange(0, 6)
    pool = labels_up_to(n, 4 * n + 2)
    labels = [rng.choice(pool) for _ in valences]
    hev = [v for v, val in enumerate(valences) for _ in range(val)]
    ends = [("h", i) for i in range(len(hev))] + [("L", x) for x in range(1, q + 1)]
    if len(ends) % 2:
        return None
    rng.shuffle(ends)
    matching = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
    try:
        return MarkedGraph(n, range(1, q + 1), labels, hev, matching)
    except ValueError:
        return None


def igraph(legs=(1, 2, 5, 6)) -> MarkedGraph:
    """Two cubic vertices joined by an edge, the first holding the first
    two legs and the second the last two.  `igraph((1, 5, 6, 2))` is
    the H graph that the rewiring relation equates with it."""
    u3 = LabelMonomial.unit(3)
    ends = [(("h", h), ("L", x)) for h, x in zip((0, 1, 4, 5), legs)]
    matching = ends[:2] + [(("h", 2), ("h", 3))] + ends[2:]
    return MarkedGraph(3, legs, [u3, u3], [0, 0, 0, 1, 1, 1], matching)


def theta_with_tail() -> MarkedGraph:
    """The theta graph in dimension 1 with one of its three edges
    subdivided by a cubic vertex, which carries leg 1."""
    u1 = LabelMonomial.unit(1)
    return MarkedGraph(
        1,
        (1,),
        [u1, u1, u1],
        [0, 0, 0, 1, 1, 1, 2, 2, 2],
        [
            (("h", 0), ("L", 1)),
            (("h", 1), ("h", 3)),
            (("h", 2), ("h", 6)),
            (("h", 4), ("h", 7)),
            (("h", 5), ("h", 8)),
        ],
    )
