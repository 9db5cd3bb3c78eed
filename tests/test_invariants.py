import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from cli_run import invoke

import torelli
from torelli import invariants
from torelli.branching import dim_irrep
from torelli.invariants import (
    DenseTensor,
    EpsForm,
    K_on_morphism,
    NotPerfect,
    _sparse_kernel,
    _omega_nonzeros,
    contraction_rows,
    harmonic_multiplicity,
    harmonic_projection,
    matching_span_rank,
    omega_m,
    perfect_matchings,
)
from torelli.partitions import Partition, partitions_of, symmetric_group_irrep_dim
from torelli.setparts import BrauerMorphism, compose


def _row_reduce(rows):
    """Test oracle: the dense reduced row echelon form of rational rows
    and its pivot columns, by exact Gauss-Jordan elimination on
    Fractions.  `invariants` eliminates sparse integer rows instead."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        scale = work[row][col]
        work[row] = [v / scale for v in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return work[:row], pivots


def _dense_kernel_basis(rows, ncols):
    """Test oracle: the dense kernel basis read off `_row_reduce`, one
    vector per free column, plus the free columns themselves (where each
    basis vector has its 1)."""
    reduced, pivots = _row_reduce(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            vec[p] = -r[f]
        basis.append(vec)
    return basis, free


def test_form_invariants():
    for g in range(1, 5):
        for eps in (1, -1):
            form = EpsForm(g, eps)
            d = form.dim
            for i in range(d):
                for j in range(d):
                    assert form.gram[j][i] == eps * form.gram[i][j]
            # gram and dual are inverse
            for j in range(d):
                row = [
                    sum(form.gram[j][x] * form.dual[x][y] for x in range(d))
                    for y in range(d)
                ]
                assert row == [
                    Fraction(1) if y == j else Fraction(0) for y in range(d)
                ]


def test_omega_entries():
    form = EpsForm(1, -1)
    t12 = omega_m([(1, 2)], form)
    assert t12.positions == (1, 2)
    # the invariant element is the inverse form, not the form
    assert [[t12.get((x, y)) for y in range(2)] for x in range(2)] == [
        [Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(0)],
    ]
    t21 = omega_m([(2, 1)], form)
    assert t21.entries == [-v for v in t12.entries]
    form_o = EpsForm(2, 1)
    assert omega_m([(2, 1)], form_o).entries == omega_m([(1, 2)], form_o).entries
    two_pairs = omega_m([(1, 2), (3, 4)], form)
    assert len(two_pairs.entries) == 16
    assert set(two_pairs.entries) <= {Fraction(0), Fraction(1), Fraction(-1)}
    assert sum(1 for v in two_pairs.entries if v) == 4


def test_omega_rejects_non_matchings():
    with pytest.raises(NotPerfect):
        omega_m([(1, 2), (2, 3)], EpsForm(1, -1))


def test_matching_span_ranks():
    assert matching_span_rank(2, 1, -1) == (1, 1)
    # genus 1 cannot tell the three matchings of four points apart
    assert matching_span_rank(4, 1, -1) == (2, 3)
    assert matching_span_rank(4, 2, -1) == (3, 3)
    for g in (1, 2, 3):
        for eps in (1, -1):
            for size in (2, 4, 6):
                rank, dim = matching_span_rank(size, g, eps)
                assert rank <= dim
                if 2 * g >= size:
                    assert rank == dim, (size, g, eps)


def test_matching_span_rank_fails_fast(monkeypatch):
    # 19!! * 2^10 and 9!! * 6^5 = 7,348,320 nonzeros, both over the cap;
    # no matching may be built before the budget is checked
    def refuse(elems):
        raise AssertionError("matchings built before the budget check")

    monkeypatch.setattr(invariants, "perfect_matchings", refuse)
    for size, g in ((20, 1), (10, 3)):
        with pytest.raises(ValueError, match="oracle cap"):
            matching_span_rank(size, g, -1)
        result = invoke(
            ["invariants", "rank", "--g", str(g), "--set-size", str(size), "--epsilon", "-1"]
        )
        assert result.exit_code == 3
        assert "oracle cap" in result.output


def test_a_huge_genus_is_answered_in_little_memory():
    # The budget is checked before the form is built, and the rank reads
    # the form's 2g nonzeros, never a 2g x 2g table.  The child runs under
    # a 1 GiB address-space limit, so a dense table at g = 10^5 (4 * 10^10
    # entries) fails there with MemoryError instead of filling the host.
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from torelli.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(torelli.__file__).parent.parent))

    def rank(size):
        args = ["invariants", "rank", "--g", "100000", "--set-size", str(size), "--epsilon", "1"]
        return subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    over = rank(4)
    assert over.returncode == 3, over.stderr
    assert "exceed the oracle cap of 1000000 nonzero entries" in over.stderr
    empty = rank(0)
    assert empty.returncode == 0, empty.stderr
    assert empty.stdout == "set size 0, genus 100000, epsilon +1: rank 1 of 1 matchings\n"


def _dense_rank(rows):
    """Test oracle: the rank of the dense (2g)^S matching tensors, by
    the exact Gauss-Jordan reduction behind the harmonic kernel.  Columns
    that are zero in every row cannot change the rank and are dropped."""
    live = [c for c in range(len(rows[0])) if any(row[c] for row in rows)]
    return len(_row_reduce([[row[c] for c in live] for row in rows])[0])


def _invariant_dimension(size, g, eps):
    """Test oracle: the dimension of the invariants of V^(x)S, V being
    2g-dimensional with an eps-symmetric form, with no tensor at all.
    The matchings span the invariants (Brauer 1937; Weyl's second
    fundamental theorem), and as an S_S-representation with k = S/2 the
    invariants are the sum of the irreducibles 2*lam over lam |- k with
    at most 2g rows (eps = +1), or (2*lam)' with lam_1 <= g (eps = -1)."""
    total = 0
    for lam in partitions_of(size // 2):
        double = Partition([2 * part for part in lam])
        if eps == 1 and lam.length <= 2 * g:
            total += symmetric_group_irrep_dim(double)
        if eps == -1 and lam.conjugate().length <= g:
            total += symmetric_group_irrep_dim(double.conjugate())
    return total


def test_sparse_omega_matches_dense():
    for size in (2, 4, 6):
        matchings = perfect_matchings(range(1, size + 1))
        for g in (1, 2):
            for eps in (1, -1):
                form = EpsForm(g, eps)
                dense = [omega_m(m, form).entries for m in matchings]
                for m, entries in zip(matchings, dense):
                    nonzeros = {k: v for k, v in enumerate(entries) if v}
                    assert len(nonzeros) == (2 * g) ** (size // 2)
                    assert _omega_nonzeros(m, form) == nonzeros, (m, g, eps)
                rank = matching_span_rank(size, g, eps)
                assert rank == (_dense_rank(dense), len(matchings)), (size, g, eps)
    # reversed pairs and a ground set that is not 1..S index the same way
    form = EpsForm(2, -1)
    for m in ([(3, 1), (2, 4)], [(9, 2), (5, 7)]):
        nonzeros = {k: v for k, v in enumerate(omega_m(m, form).entries) if v}
        assert _omega_nonzeros(m, form) == nonzeros


def test_matching_span_rank_is_the_invariant_dimension():
    ranks = {}
    for size in (2, 4, 6, 8):
        for g in (1, 2):
            for eps in (1, -1):
                rank, count = matching_span_rank(size, g, eps)
                assert rank == _invariant_dimension(size, g, eps), (size, g, eps)
                ranks[size, g, eps] = (rank, count)
    assert ranks[8, 1, 1] == (35, 105)
    assert ranks[8, 1, -1] == (14, 105)
    assert ranks[8, 2, -1] == (84, 105)
    assert ranks[6, 2, -1] == (14, 15)
    assert ranks[8, 2, 1] == (105, 105)
    # past the old dense-entry cap (7!! * 6^8 entries), inside the nonzero one
    result = invoke(["invariants", "rank", "--g", "3", "--set-size", "8", "--epsilon", "-1"])
    assert result.exit_code == 0
    assert "rank 104 of 105 matchings" in result.output
    assert _invariant_dimension(8, 3, -1) == 104


def test_matching_span_rank_stays_off_dense_tensors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense tensor built for a rank")

    monkeypatch.setattr(invariants, "omega_m", refuse)
    monkeypatch.setattr(invariants, "DenseTensor", refuse)
    for eps in (1, -1):
        assert matching_span_rank(6, 3, eps) == (15, 15)
    result = invoke(["invariants", "rank", "--g", "2", "--set-size", "8", "--epsilon", "-1"])
    assert result.exit_code == 0
    assert "rank 84 of 105 matchings" in result.output


def test_circle_scalar():
    for g in (1, 2, 3):
        for eps in (1, -1):
            form = EpsForm(g, eps)
            cap = BrauerMorphism((), (1, 2), {}, (), ((1, 2),))
            cup = BrauerMorphism((1, 2), (), {}, ((1, 2),), ())
            one = DenseTensor.scalar(form.dim, 1)
            circle = K_on_morphism(cup, form)(K_on_morphism(cap, form)(one))
            assert circle.entries == [Fraction(eps * 2 * g)]


def test_identity_morphism():
    form = EpsForm(2, -1)
    ident = BrauerMorphism((1, 2, 3), (1, 2, 3), {1: 1, 2: 2, 3: 3})
    action = K_on_morphism(ident, form)
    rng = random.Random(3)
    t = DenseTensor(form.dim, (1, 2, 3))
    for i in range(len(t.entries)):
        t.entries[i] = Fraction(rng.randrange(-3, 4))
    assert action(t) == t


def _random_downward(rng, source):
    elems = list(source)
    rng.shuffle(elems)
    npairs = rng.randrange(0, len(elems) // 2 + 1)
    pairs = [
        (elems[2 * k], elems[2 * k + 1]) for k in range(npairs)
    ]
    rest = sorted(elems[2 * npairs :])
    target = list(range(1, len(rest) + 1))
    images = target[:]
    rng.shuffle(images)
    bij = dict(zip(rest, images))
    return BrauerMorphism(source, tuple(target), bij, tuple(pairs), ())


def test_functoriality_random_diagrams():
    rng = random.Random(5)
    for trial in range(50):
        g = rng.randrange(1, 4)
        eps = rng.choice([1, -1])
        signed = rng.choice([True, False])
        form = EpsForm(g, eps)
        q = rng.choice([2, 3, 4, 5])
        src = tuple(range(1, q + 1))
        m1 = _random_downward(rng, src)
        m2 = _random_downward(rng, m1.target)
        composite = compose(m2, m1)
        t = DenseTensor(form.dim, src)
        for i in range(len(t.entries)):
            t.entries[i] = Fraction(rng.randrange(-2, 3))
        lhs = K_on_morphism(composite, form, signed)(t)
        rhs = K_on_morphism(m2, form, signed)(K_on_morphism(m1, form, signed)(t))
        assert lhs == rhs, (trial, g, eps, signed)


def test_harmonic_projection_dimensions():
    form = EpsForm(2, -1)
    assert len(harmonic_projection(0, form)) == 1
    # harmonic 2-tensors: V_{1,1} (5) plus V_2 (10)
    assert len(harmonic_projection(2, form)) == 15


def test_contraction_rows_hold_one_entry_per_basis_vector():
    for g in (1, 2, 3):
        for eps in (1, -1):
            form = EpsForm(g, eps)
            for q in (2, 3):
                rows = contraction_rows(q, form)
                assert len(rows) == q * (q - 1) // 2 * form.dim ** (q - 2)
                for row in rows:
                    assert len(row) == 2 * g
                    assert set(row.values()) <= {Fraction(1), Fraction(eps)}


def test_sparse_kernel_matches_the_dense_oracle():
    cases = [(g, q) for g in (1, 2, 3) for q in (1, 2, 3)] + [(2, 4)]
    for g, q in cases:
        for eps in (1, -1):
            form = EpsForm(g, eps)
            size = form.dim**q
            rows = contraction_rows(q, form)
            dense_rows = []
            for row in rows:
                dense = [Fraction(0)] * size
                for k, v in row.items():
                    dense[k] = v
                dense_rows.append(dense)
            dense_basis, dense_free = _dense_kernel_basis(dense_rows, size)
            basis, free = _sparse_kernel(rows, size)
            assert free == dense_free, (g, q, eps)
            assert basis == [
                {k: v for k, v in enumerate(vec) if v} for vec in dense_basis
            ], (g, q, eps)
            tensors = harmonic_projection(q, form)
            assert [t.entries for t in tensors] == dense_basis, (g, q, eps)
            assert all(t.positions == tuple(range(1, q + 1)) for t in tensors)


def test_harmonic_multiplicities_are_weyl_dimensions():
    for eps in (1, -1):
        form = EpsForm(3, eps)
        for q in (1, 2, 3):
            for lam in partitions_of(q):
                assert harmonic_multiplicity(lam, form) == dim_irrep(lam, eps, 3)


def test_harmonic_traces_are_computed_once_per_q(monkeypatch):
    # Every lam of q reads the same traces; only the characters differ.
    calls = []
    kernel = invariants._sparse_kernel

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(invariants, "_sparse_kernel", counted)
    invariants._harmonic_traces.cache_clear()
    for eps in (1, -1):
        values = [harmonic_multiplicity(lam, EpsForm(3, eps)) for lam in partitions_of(3)]
        assert values == [dim_irrep(lam, eps, 3) for lam in partitions_of(3)]
    assert calls == [6**3, 6**3]


def test_perfect_matching_counts():
    assert len(perfect_matchings(range(1, 7))) == 15
    assert len(perfect_matchings([])) == 1
