import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from cli_run import invoke

import brauer_oracle
import torelli
from brauer_oracle import (
    BrauerMorphism,
    DenseTensor,
    K_on_morphism,
    _sparse_kernel,
    compose,
    contraction_rows,
    dense_omega_m,
    dual,
    gram,
    harmonic_multiplicity,
    harmonic_projection,
)
from bead_oracle import symmetric_group_irrep_dim
from torelli import invariants
from torelli.branching import dim_irrep
from torelli.invariants import (
    EpsForm,
    NotPerfect,
    _omega_nonzeros,
    matching_span_rank,
    omega_m,
    perfect_matchings,
)
from torelli.partitions import Partition, partitions_of


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
            form_table, copairing_table = gram(form), dual(form)
            for i in range(d):
                for j in range(d):
                    assert form_table[j][i] == eps * form_table[i][j]
            # the form and its copairing are inverse
            for j in range(d):
                row = [
                    sum(form_table[j][x] * copairing_table[x][y] for x in range(d))
                    for y in range(d)
                ]
                assert row == [
                    Fraction(1) if y == j else Fraction(0) for y in range(d)
                ]


def test_omega_entries():
    form = EpsForm(1, -1)
    t12 = dense_omega_m([(1, 2)], form)
    assert t12.positions == (1, 2)
    # the invariant element is the inverse form, not the form
    assert [[t12.get((x, y)) for y in range(2)] for x in range(2)] == [
        [Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(0)],
    ]
    t21 = dense_omega_m([(2, 1)], form)
    assert t21.entries == [-v for v in t12.entries]
    form_o = EpsForm(2, 1)
    assert dense_omega_m([(2, 1)], form_o).entries == dense_omega_m([(1, 2)], form_o).entries
    two_pairs = dense_omega_m([(1, 2), (3, 4)], form)
    assert len(two_pairs.entries) == 16
    assert set(two_pairs.entries) <= {Fraction(0), Fraction(1), Fraction(-1)}
    assert sum(1 for v in two_pairs.entries if v) == 4


def test_omega_rejects_non_matchings():
    with pytest.raises(NotPerfect):
        omega_m([(1, 2), (2, 3)], EpsForm(1, -1))


def test_a_repeated_element_is_refused_by_the_one_builder():
    # the sparse builder behind both omega_m and the rank refuses a pair
    # (1, 1), as the dense reference does
    form = EpsForm(1, 1)
    for build in (_omega_nonzeros, omega_m, dense_omega_m):
        with pytest.raises(NotPerfect, match="repeats an element"):
            build([(1, 1)], form)


def test_rank_inputs_are_checked_in_the_library_in_order():
    # genus, then epsilon, then set size, then the budget, in the words
    # `invariants rank` prints; a genus and a set size are ints, not
    # bools, floats (int() would read a genus 1.5 as 1) or point lists
    cases = [
        ((4, 1.5, -1), "genus must be an integer, got 1.5"),
        ((4.0, True, -1), "genus must be an integer, got True"),
        ((4.0, 1, -1), "set size must be an integer, got 4.0"),
        ((True, 1, 1), "set size must be an integer, got True"),
        (([1, 1], 1, 1), "set size must be an integer, got [1, 1]"),
        ((2, 0, 1), "genus must be positive, got 0"),
        ((3, 0, 2), "genus must be positive, got 0"),
        ((3, 1, 2), "epsilon must be 1 or -1, got 2"),
        ((20, 1, 0), "epsilon must be 1 or -1, got 0"),
        ((3, 1, 1), "set size must be even and nonnegative, got 3"),
        ((-2, 1, 1), "set size must be even and nonnegative, got -2"),
        ((21, 1, 1), "set size must be even and nonnegative, got 21"),
        (([1, 2, 3], 1, 1), "set size must be an integer, got [1, 2, 3]"),
        ((10, 3, 1), "10-point matching tensors in dimension 6 exceed the oracle cap"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as info:
            matching_span_rank(*args)
        assert str(info.value).startswith(message), (args, info.value)
    for (g, eps), message in {
        (1.5, -1): "genus must be an integer, got 1.5",
        (0, 1): "genus must be positive, got 0",
        (1, 2): "epsilon must be 1 or -1, got 2",
    }.items():
        with pytest.raises(ValueError, match=f"^{message}$"):
            EpsForm(g, eps)


def test_epsilon_is_the_int_1_or_minus_1():
    # True and 1.0 equal 1, and were taken as +1
    for eps in (True, False, 1.0, -1.0, "1"):
        with pytest.raises(ValueError, match=f"^epsilon must be 1 or -1, got {eps}$"):
            EpsForm(1, eps)
        with pytest.raises(ValueError, match=f"^epsilon must be 1 or -1, got {eps}$"):
            matching_span_rank(4, 1, eps)
    assert EpsForm(1, -1).epsilon == -1


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
        if eps == 1 and len(lam) <= 2 * g:
            total += symmetric_group_irrep_dim(double)
        if eps == -1 and len(lam.conjugate()) <= g:
            total += symmetric_group_irrep_dim(double.conjugate())
    return total


def _sparse_nonzeros(m, form, dense):
    """The nonzeros of the dense reference, checked against both sparse
    builders: `omega_m` holds them in a dict of Fractions, which
    perfbench/stages.py reads and divides."""
    nonzeros = {k: v for k, v in enumerate(dense.entries) if v}
    assert _omega_nonzeros(m, form) == nonzeros, (m, form)
    tensor = omega_m(m, form)
    assert (tensor.dim, tensor.positions) == (dense.dim, dense.positions)
    assert type(tensor.entries) is dict and tensor.entries == nonzeros, (m, form)
    assert all(type(v) is Fraction for v in tensor.entries.values())
    return nonzeros


def test_sparse_omega_matches_dense():
    for size in (2, 4, 6):
        matchings = perfect_matchings(range(1, size + 1))
        for g in (1, 2):
            for eps in (1, -1):
                form = EpsForm(g, eps)
                dense = [dense_omega_m(m, form) for m in matchings]
                for m, tensor in zip(matchings, dense):
                    nonzeros = _sparse_nonzeros(m, form, tensor)
                    assert len(nonzeros) == (2 * g) ** (size // 2)
                rank = matching_span_rank(size, g, eps)
                rows = [tensor.entries for tensor in dense]
                assert rank == (_dense_rank(rows), len(matchings)), (size, g, eps)
    # reversed pairs and a ground set that is not 1..S index the same way
    for m, form in (([(3, 1), (2, 4)], EpsForm(2, -1)), ([(9, 2), (5, 7)], EpsForm(2, -1)),
                    ([(11, 0), (3, 8), (4, 10)], EpsForm(1, 1))):
        _sparse_nonzeros(m, form, dense_omega_m(m, form))


def test_matching_span_rank_is_the_invariant_dimension():
    ranks = {}
    # g <= 3 up to S = 8 and g = 4 up to S = 6
    for size in (2, 4, 6, 8):
        for g in (1, 2, 3, 4) if size <= 6 else (1, 2, 3):
            for eps in (1, -1):
                rank, count = matching_span_rank(size, g, eps)
                assert rank == _invariant_dimension(size, g, eps), (size, g, eps)
                ranks[size, g, eps] = (rank, count)
    assert ranks[8, 1, 1] == (35, 105)
    assert ranks[8, 1, -1] == (14, 105)
    assert ranks[8, 2, -1] == (84, 105)
    assert ranks[6, 2, -1] == (14, 15)
    assert ranks[8, 2, 1] == (105, 105)
    assert ranks[8, 3, -1] == (104, 105)
    assert ranks[6, 4, -1] == (15, 15)
    # past the old dense-entry cap (7!! * 6^8 entries), inside the nonzero one
    result = invoke(["invariants", "rank", "--g", "3", "--set-size", "8", "--epsilon", "-1"])
    assert result.exit_code == 0
    assert "rank 104 of 105 matchings" in result.output
    assert _invariant_dimension(8, 3, -1) == 104


def test_matching_span_rank_stays_off_dense_tensors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense tensor built for a rank")

    monkeypatch.setattr(invariants, "omega_m", refuse)
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
    kernel = brauer_oracle._sparse_kernel

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(brauer_oracle, "_sparse_kernel", counted)
    brauer_oracle._harmonic_traces.cache_clear()
    for eps in (1, -1):
        values = [harmonic_multiplicity(lam, EpsForm(3, eps)) for lam in partitions_of(3)]
        assert values == [dim_irrep(lam, eps, 3) for lam in partitions_of(3)]
    assert calls == [6**3, 6**3]


def test_perfect_matching_counts():
    assert len(perfect_matchings(range(1, 7))) == 15
    assert len(perfect_matchings([])) == 1
