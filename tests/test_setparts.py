import random
import time
from fractions import Fraction

import pytest

import basis_oracle
from basis_oracle import _blocks_within, _perm_from_cycle_type, enumerate_basis, labels_up_to
from brauer_oracle import (
    BrauerMorphism,
    GroundSetOverlap,
    IllegalContraction,
    SignedPartitionVector,
    apply_morphism,
    compose,
    day_product,
)
from torelli.characters import ClassFunction, decompose
from torelli.labels import LabelMonomial
from torelli.partitions import Partition, partitions_of
from torelli.pipeline import oracle_check
from torelli.setparts import (
    LabelledPartition,
    _block_floor,
    _label_series,
    _perm_parity,
    quotient_factor,
    sigma_character,
    sigma_characters,
)


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


def _oracle_allowed(label, size, variant):
    """The label rule written on monomials: an empty part needs degree
    above 2n, a singleton degree at least n, and in P' a pair a label
    other than 1."""
    if size == 0:
        return label.degree > 2 * label.n
    if size == 1:
        return label.degree >= label.n
    return not (size == 2 and variant == "Pprime" and label.is_unit())


def _oracle_label_series(n, d_max, variant):
    """Test oracle: `_label_series` from the enumerated labels, each
    tested by `_oracle_allowed`, with the empty-part families grown one
    label at a time.  `setparts._label_series` reads the one table of
    label counts by part size in `labels`."""
    labels = labels_up_to(n, d_max + 2 * n)
    by_size = [[0] * (d_max + 1)]
    for size in range(1, d_max // n + 3):
        counts = [0] * (d_max + 1)
        for label in labels:
            d = label.degree + n * (size - 2)
            if d <= d_max and _oracle_allowed(label, size, variant):
                counts[d] += 1
        by_size.append(counts)
    empty = [1] + [0] * d_max
    for label in labels:
        if _oracle_allowed(label, 0, variant):
            step = label.degree - 2 * n
            for d in range(step, d_max + 1):
                empty[d] += empty[d - step]
    return by_size, empty


def test_label_series_and_floors_match_the_enumerated_labels():
    # the package's series and floors in P', the basis oracle's floors in
    # P0 and P' too
    for n in range(1, 9):
        for d_max in range(25):
            assert _label_series(n, d_max) == _oracle_label_series(n, d_max, "Pprime"), (n, d_max)
        labels = labels_up_to(n, 4 * n)
        for size in range(1, 15):
            for variant in ("P0", "Pprime"):
                least = min(m.degree for m in labels if _oracle_allowed(m, size, variant))
                floor = least + n * (size - 2)
                assert basis_oracle.block_floor(n, size, variant) == floor, (variant, n, size)
            assert _block_floor(n, size) == basis_oracle.block_floor(n, size, "Pprime"), (n, size)


def test_floor_pruned_walk_matches_the_bell_walk():
    # the same partitions in the same order: those of the full walk whose
    # block floors fit the cap
    for variant in ("P0", "Pprime"):
        for n in (1, 3, 5):
            for q in range(10):
                elems = tuple(range(1, q + 1))
                walk = list(_set_partitions(elems))
                floors = [
                    sum(basis_oracle.block_floor(n, len(b), variant) for b in blocks) for blocks in walk
                ]
                for cap in range(9):
                    kept = [blocks for blocks, floor in zip(walk, floors) if floor <= cap]
                    assert list(_blocks_within(elems, n, variant, cap)) == kept, (
                        variant, n, q, cap,
                    )


def test_walk_charges_the_elements_still_to_place():
    # Forty elements at n = 1 need floors of at least 40 / 3 (a triple's
    # floor is 1), so nothing fits a cap of 6; the walk must see that at
    # the root, not after the dead branches of the blocks placed so far.
    start = time.perf_counter()
    assert list(_blocks_within(tuple(range(1, 41)), 1, "Pprime", 6)) == []
    assert time.perf_counter() - start < 1.0


def test_cycle_walks_match_the_per_class_test():
    # one walk over the cycles of each class against the route it
    # replaced: one walk over all set partitions, each tested against
    # every class
    for n, caps in ((1, (0, 2)), (3, (1, 4)), (5, (2, 9))):
        for cap in caps:
            for q in range(11):
                assert sigma_characters(q, n, cap) == (
                    basis_oracle.set_partition_characters(q, n, cap)
                ), (n, cap, q)


def test_cycle_walks_charge_the_elements_still_to_place():
    # Thirty elements at n = 1 need floors of at least 10, over a cap of
    # 6: each of the 5,604 classes must stop before placing a cycle.
    start = time.perf_counter()
    chis = sigma_characters(30, 1, 6)
    assert time.perf_counter() - start < 1.0
    assert sorted(chis) == list(range(7))
    assert [d for d, chi in chis.items() if chi.values] == []


def _inversion_parity(word):
    """Test oracle: the parity of the permutation sorting word, as the
    number of out-of-order pairs, mod 2; `_perm_parity` counts cycles."""
    inv = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                inv += 1
    return inv & 1


def test_perm_parity_matches_the_inversion_count():
    rng = random.Random(31)
    for length in [*range(9), *range(9, 201, 7), 200]:
        for _ in range(6):
            # distinct, non-contiguous and some negative entries
            word = rng.sample(range(-3 * length - 5, 5 * length + 5), length)
            assert _perm_parity(word) == _inversion_parity(word), word
            assert _perm_parity(tuple(word)) == _inversion_parity(word), word
    assert [_perm_parity(w) for w in ([], [7], [2, 9], [9, 2], [3, 1, 2], [10, 30, 20])] == [
        0, 0, 0, 1, 0, 1
    ]

def test_enumerate_basis_rejects_unquotiented():
    for variant, message in (("P", "no finite basis"), ("Q", "unknown variant")):
        with pytest.raises(ValueError, match=message):
            enumerate_basis(2, 3, variant, 4)
    # the package counts characters on P' alone
    for variant in ("P", "Q", "P0"):
        with pytest.raises(ValueError, match=f"Pprime basis only, got '{variant}'"):
            sigma_character(2, 3, 2, variant)


def test_sigma_character_small():
    # q = 2, n = 3, degree 2: in P' the unit pair is gone, and only the two
    # singletons labelled p_1 are left; the swap fixes them, with the sign
    # (-1)^n of the orientation
    chi = sigma_character(2, 3, 2, "Pprime")
    assert chi.values == {Partition((1, 1)): 1, Partition((2,)): -1}
    assert chi == basis_oracle.sigma_characters(2, 3, 2, "Pprime")[2]
    assert [str(P) for P in enumerate_basis(2, 3, "Pprime", 2) if P.degree == 2] == ["(1|p1)(2|p1)"]
    assert decompose(chi) == {Partition((1, 1)): 1}


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
    # three routes: the count over set partitions, the fixed points of the
    # enumerated basis, and (below weight 8, where it is slow) transport
    # on the basis of each degree
    for n in (1, 3, 5):
        for q in range(9):
            chis = sigma_characters(q, n, 8)
            assert chis == basis_oracle.sigma_characters(q, n, 8, "Pprime"), (n, q)
            assert sorted(chis) == list(range(9))
            if q == 8:
                continue
            for d, chi in chis.items():
                assert chi == _transport_character(q, n, d, "Pprime"), (n, q, d)


def test_oracle_builds_no_labelled_partition(monkeypatch):
    # the characters count labels on the walked set partitions
    def refuse(self, n, parts):
        raise AssertionError("a labelled partition was built")

    monkeypatch.setattr(LabelledPartition, "__init__", refuse)
    assert oracle_check(6, 6, 6).ok


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
    # (1 - t^2)(1 - t^6) at n = 3, 1 - t^2 at n = 1 up to t^5
    assert quotient_factor(3, 8) == (1, 0, -1, 0, 0, 0, -1, 0, 1)
    assert quotient_factor(1, 5) == (1, 0, -1, 0, 0, 0)
    # known to a negative order, it has no term, as the series it replaced
    assert quotient_factor(2, -1) == quotient_factor(1, -3) == ()
    assert all(type(c) is int for c in quotient_factor(3, 8))
