import random

import pytest

from torelli.partitions import (
    EMPTY,
    Partition,
    even_columns,
    even_rows,
    format_partition,
    parse_partition,
    partition_count,
    partitions_of,
    partitions_upto,
    symmetric_group_irrep_dim,
    z_lambda,
)


def test_enumeration_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(partitions_of(n)) == count
        assert partition_count(n) == count
    assert len(partitions_upto(5)) == sum(expected[:6])


def test_enumeration_order_and_max_length():
    parts = partitions_of(4)
    assert parts[0] == Partition((4,))
    assert parts[-1] == Partition((1, 1, 1, 1))
    assert parts == sorted(parts, key=lambda p: p.sort_key())
    short = partitions_of(6, max_length=2)
    assert all(p.length <= 2 for p in short)
    assert len(short) == 4


def test_constructor_cleans_its_input_once():
    assert Partition([0, 1, 3, 0, 2]) == (3, 2, 1)
    assert type(Partition([1])) is Partition
    with pytest.raises(ValueError):
        Partition([2, -1])
    # a Partition is already clean and immutable, so it is returned as is
    lam = Partition((2, 2, 1))
    assert Partition(lam) is lam


def test_conjugate():
    lam = Partition((4, 2, 1))
    assert lam.conjugate() == Partition((3, 2, 1, 1))
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(0, 12)
        lam = rng.choice(partitions_of(n)) if n else EMPTY
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().size == lam.size


def test_containment():
    assert Partition((3, 2)).contains(Partition((2, 2)))
    assert not Partition((3, 2)).contains(Partition((2, 2, 1)))
    assert Partition((1,)).contains(EMPTY)


def test_z_lambda():
    assert z_lambda(EMPTY) == 1
    assert z_lambda(Partition((1, 1, 1))) == 6
    assert z_lambda(Partition((3, 1))) == 3
    assert z_lambda(Partition((2, 2))) == 8
    # sum over partitions of n!/z_lambda counts the conjugacy classes fully
    for n in range(1, 8):
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert sum(fact // z_lambda(mu) for mu in partitions_of(n)) == fact


def test_parity_predicates():
    assert even_rows(Partition((4, 2)))
    assert not even_rows(Partition((3, 2)))
    assert even_columns(Partition((2, 2, 1, 1)))
    assert not even_columns(Partition((2, 1, 1)))
    assert even_rows(EMPTY) and even_columns(EMPTY)


def test_text_round_trip():
    assert format_partition(Partition((2, 1, 1))) == "2,1^2"
    assert format_partition(EMPTY) == "0"
    assert str(Partition((3, 3, 1))) == "3^2,1"
    assert parse_partition("2,1^2") == Partition((2, 1, 1))
    assert parse_partition("0") == EMPTY
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(0, 13)
        lam = rng.choice(partitions_of(n)) if n else EMPTY
        assert parse_partition(format_partition(lam)) == lam


def test_irrep_dimensions():
    assert symmetric_group_irrep_dim(EMPTY) == 1
    assert symmetric_group_irrep_dim(Partition((2, 1))) == 2
    assert symmetric_group_irrep_dim(Partition((3, 2))) == 5
    assert symmetric_group_irrep_dim(Partition((2, 2, 1))) == 5
    for n in range(1, 8):
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        total = sum(symmetric_group_irrep_dim(lam) ** 2 for lam in partitions_of(n))
        assert total == fact
