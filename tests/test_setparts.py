import random
from fractions import Fraction

import pytest

from torelli import setparts
from torelli.characters import ClassFunction, decompose
from torelli.labels import LabelMonomial, parse_label
from torelli.partitions import Partition, partitions_of
from torelli.pipeline import oracle_check
from torelli.setparts import (
    BrauerMorphism,
    GroundSetOverlap,
    IllegalContraction,
    LabelledPartition,
    SignedPartitionVector,
    _block_floor,
    _blocks_within,
    apply_morphism,
    compose,
    day_product,
    enumerate_basis,
    _perm_from_cycle_type,
    quotient_factor,
    sigma_character,
    sigma_characters,
)
from torelli.symfunc import SymFunc


def unit(n):
    return LabelMonomial.unit(n)


def test_partition_canonical_order():
    p = LabelledPartition(
        3,
        [((4, 2), unit(3)), ((1, 3), LabelMonomial.e(3)), ((), LabelMonomial.p(3, 2))],
    )
    assert p.ground == (1, 2, 3, 4)
    assert [elems for elems, _ in p.parts] == [(1, 3), (2, 4), ()]
    q = LabelledPartition(
        3,
        [((), LabelMonomial.p(3, 2)), ((3, 1), LabelMonomial.e(3)), ((2, 4), unit(3))],
    )
    assert p == q
    assert hash(p) == hash(q)


def test_partition_degree():
    # degree of a part is label degree plus n(size - 2)
    p = LabelledPartition(3, [((1, 2, 3), unit(3))])
    assert p.degree == 3
    q = LabelledPartition(3, [((1,), LabelMonomial.e(3)), ((2, 3), unit(3))])
    assert q.degree == 3
    r = LabelledPartition(3, [((), LabelMonomial.p(3, 2))])
    assert r.degree == 2


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        LabelledPartition(3, [((1, 2), unit(3)), ((2, 3), unit(3))])


def test_in_variant():
    unit_pair = LabelledPartition(3, [((1, 2), unit(3))])
    assert unit_pair.in_variant("P")
    assert unit_pair.in_variant("P0")
    assert not unit_pair.in_variant("Pprime")
    low_singleton = LabelledPartition(3, [((1,), unit(3))])
    assert not low_singleton.in_variant("P0")
    low_empty = LabelledPartition(3, [((), LabelMonomial.e(3))])
    assert not low_empty.in_variant("P0")
    high_empty = LabelledPartition(3, [((), LabelMonomial.p(3, 2))])
    assert high_empty.in_variant("Pprime")


def test_enumerate_basis_counts():
    # q=2 d=2 by hand: unit pair with an empty p_2 or p_1^2 part,
    # or two singletons labelled p_1
    expected = {
        (0, 4): 4,
        (1, 4): 0,
        (2, 2): 3,
        (2, 4): 9,
        (3, 3): 11,
        (3, 5): 34,
    }
    for (q, d), count in expected.items():
        basis = [P for P in enumerate_basis(q, 3, "P0", d) if P.degree == d]
        assert len(basis) == count, (q, d)


def _set_partitions(elems):
    """Test oracle: every set partition of elems, the full Bell walk that
    `_blocks_within` prunes by block floors.  The first element opens a
    new first block in each partition of the rest, then joins each of
    its blocks in turn."""
    if not elems:
        yield ()
        return
    head, rest = elems[0], elems[1:]
    for blocks in _set_partitions(rest):
        yield ((head,),) + blocks
        for i, b in enumerate(blocks):
            yield blocks[:i] + (((head,) + b),) + blocks[i + 1 :]


def test_floor_pruned_walk_matches_the_bell_walk():
    # the same partitions in the same order: those of the full walk whose
    # block floors fit the cap
    for variant in ("P0", "Pprime"):
        for n in (1, 3, 5):
            for q in range(10):
                elems = tuple(range(1, q + 1))
                walk = list(_set_partitions(elems))
                floors = [sum(_block_floor(n, len(b), variant) for b in blocks) for blocks in walk]
                for cap in range(9):
                    kept = [blocks for blocks, floor in zip(walk, floors) if floor <= cap]
                    assert _blocks_within(elems, n, variant, cap) == kept, (variant, n, q, cap)


def test_enumerate_basis_rejects_unquotiented():
    with pytest.raises(ValueError):
        enumerate_basis(2, 3, "P", 4)


def test_sigma_character_small():
    chi = sigma_character(2, 3, 2, "P0")
    assert chi.value(Partition((1, 1))) == 3
    assert chi.value(Partition((2,))) == -3
    assert decompose(chi) == {Partition((1, 1)): 3}


def test_sigma_character_triples():
    # 9 points into unit triples: 280 basis elements, and the
    # multiplicity of the (2^3,1^3) irreducible is 1, not 2
    basis = [P for P in enumerate_basis(9, 1, "Pprime", 3) if P.degree == 3]
    assert len(basis) == 280
    lam = Partition((2, 2, 2, 1, 1, 1))
    assert decompose(sigma_character(9, 1, 3))[lam] == 1
    for d in (1, 2):
        chi = sigma_character(9, 1, d)
        assert decompose(chi).get(lam, 0) == 0


def _transport_character(q, n, degree, variant):
    """Test oracle: the character by transport, on the basis enumerated
    for this degree alone.  sigma fixes P when moving the elements of
    every nonempty part by sigma gives back the same parts, each with
    the same label."""
    basis = [
        {frozenset(elems): c for elems, c in P.parts if elems}
        for P in enumerate_basis(q, n, variant, degree)
        if P.degree == degree
    ]
    values = {}
    for mu in partitions_of(q):
        sigma = _perm_from_cycle_type(q, mu)
        fixed = sum(
            {frozenset(map(sigma.get, part)): c for part, c in parts.items()} == parts
            for parts in basis
        )
        values[mu] = Fraction(fixed * (-1) ** ((q - len(mu)) * n))
    return ClassFunction(q, values)


def test_sigma_characters_match_transport_oracle():
    for variant in ("P0", "Pprime"):
        for n in (1, 3, 5):
            for q in range(8):
                chis = sigma_characters(q, n, 8, variant)
                assert sorted(chis) == list(range(9))
                for d, chi in chis.items():
                    assert chi == _transport_character(q, n, d, variant), (
                        variant, n, q, d,
                    )


def test_oracle_enumerates_each_weight_once(monkeypatch):
    # one enumeration per weight q, and no partition built beyond it:
    # fixed points are counted without transporting any basis element
    calls, listed, built = [], [0], [0]
    enumerate_once = setparts.enumerate_basis
    init = LabelledPartition.__init__

    def counted_enumeration(ground, n, variant="Pprime", degree_cap=0):
        calls.append(ground)
        basis = enumerate_once(ground, n, variant, degree_cap)
        listed[0] += len(basis)
        return basis

    def counted_init(self, n, parts):
        built[0] += 1
        init(self, n, parts)

    monkeypatch.setattr(setparts, "enumerate_basis", counted_enumeration)
    monkeypatch.setattr(LabelledPartition, "__init__", counted_init)
    assert oracle_check(6, 6, 6).ok
    assert calls == list(range(7))
    assert built[0] == listed[0] > 0


def test_day_product_sign():
    x = LabelledPartition(1, [((2,), LabelMonomial.e(1))])
    y = LabelledPartition(1, [((1,), LabelMonomial.e(1))])
    prod = day_product(x, y)
    merged = LabelledPartition(
        1, [((1,), LabelMonomial.e(1)), ((2,), LabelMonomial.e(1))]
    )
    assert prod.coefficient(merged) == -1
    # even weight: no sign
    x2 = LabelledPartition(2, [((2,), LabelMonomial.e(2))])
    y2 = LabelledPartition(2, [((1,), LabelMonomial.e(2))])
    assert day_product(x2, y2).coefficient(
        LabelledPartition(
            2, [((1,), LabelMonomial.e(2)), ((2,), LabelMonomial.e(2))]
        )
    ) == 1


def test_day_product_rejects_overlap():
    x = LabelledPartition(1, [((1,), LabelMonomial.e(1))])
    with pytest.raises(GroundSetOverlap):
        day_product(x, x)


def test_circle_scalar():
    # insert a pair, then contract it: the circle closes to (-1)^n 2g
    for n, g in ((1, 3), (2, 4)):
        cap = BrauerMorphism((), (1, 2), {}, (), ((1, 2),))
        cup = BrauerMorphism((1, 2), (), {}, ((1, 2),), ())
        start = SignedPartitionVector.basis(LabelledPartition(n, []))
        mid = apply_morphism(cap, start, "sBr2g", g=g, variant="P0")
        end = apply_morphism(cup, mid, "sBr2g", g=g, variant="P0")
        empty = LabelledPartition(n, [])
        assert end.coefficient(empty) == Fraction((-1) ** n * 2 * g)


def test_unit_pair_closure_needs_genus():
    pair = LabelledPartition(1, [((1, 2), unit(1))])
    cup = BrauerMorphism((1, 2), (), {}, ((1, 2),), ())
    with pytest.raises(IllegalContraction):
        apply_morphism(cup, pair, "dsBr", variant="P0")


def _random_partition(rng, elems, n, pool):
    # singletons need a label of degree >= n to stay in the variant
    elems = list(elems)
    rng.shuffle(elems)
    parts = []
    while elems:
        size = rng.randrange(1, min(3, len(elems)) + 1)
        block, elems = elems[:size], elems[size:]
        label = LabelMonomial.e(n) if size == 1 else rng.choice(pool)
        parts.append((tuple(block), label))
    p = LabelledPartition(n, parts)
    assert p.in_variant("P0")
    return p


def _random_downward(rng, q):
    source = tuple(range(1, q + 1))
    shuffled = list(source)
    rng.shuffle(shuffled)
    k = rng.randrange(0, q // 2 + 1)
    pairs = tuple(
        tuple(sorted(shuffled[2 * i : 2 * i + 2])) for i in range(k)
    )
    rest = shuffled[2 * k :]
    targets = list(range(1, len(rest) + 1))
    rng.shuffle(targets)
    bij = dict(zip(rest, targets))
    return BrauerMorphism(source, tuple(range(1, len(rest) + 1)), bij, pairs, ())


def test_apply_morphism_functorial():
    rng = random.Random(53)
    for n in (1, 2):
        pool = [m for m in [unit(n), LabelMonomial.e(n)]]
        for _ in range(25):
            q = rng.randrange(2, 7)
            m1 = _random_downward(rng, q)
            mid = len(m1.target)
            m2 = _random_downward(rng, mid)
            x = _random_partition(rng, range(1, q + 1), n, pool)
            via_composite = apply_morphism(
                compose(m2, m1), x, "sBr2g", g=2, variant="P0"
            )
            stepwise = apply_morphism(
                m2,
                apply_morphism(m1, x, "sBr2g", g=2, variant="P0"),
                "sBr2g",
                g=2,
                variant="P0",
            )
            assert via_composite == stepwise, (n, m1, m2, x)


def test_quotient_factor():
    qf = quotient_factor(3, 8)
    assert {k: qf.coefficient(k) for k in qf.exponents()} == {
        0: SymFunc.scalar(1),
        2: SymFunc.scalar(-1),
        6: SymFunc.scalar(-1),
        8: SymFunc.scalar(1),
    }
    qf1 = quotient_factor(1, 5)
    assert {k: qf1.coefficient(k) for k in qf1.exponents()} == {
        0: SymFunc.scalar(1),
        2: SymFunc.scalar(-1),
    }


def test_json_round_trip():
    p = LabelledPartition(
        3, [((1, 2), parse_label("e*p1", 3)), ((), parse_label("p2^2", 3))]
    )
    blob = p.to_json()
    assert blob["degree"] == p.degree
    rebuilt = LabelledPartition(
        3,
        [
            (tuple(part["elements"]), parse_label(part["label"], 3))
            for part in blob["parts"]
        ],
    )
    assert rebuilt == p
