"""Acceptance gate: nine criteria with per-criterion pass/fail lines.

Each criterion prints its verdict before asserting, so a failing run
still reports every sub-check it reached.  Expected values are frozen
from independent oracles where one exists.

Two printed-source values were mis-copied and are corrected here, each
tied to a route that shares no code with the pipeline:

- Criterion 4 (point and closed variants, 2n = 2, degree 3): the source
  prints 2*V[2^3,1^3]; the multiplicity is 1.  A labelled part with r
  legs and a label of degree |c| has degree r - 2 + |c| >= 1 in
  dimension 2, so weight 9 in degree 3 comes only from three tripods,
  i.e. e3[e3] = s[1^9] + s[2^2,1^5] + s[2^3,1^3] + s[3^2,1^3] + s[3,2^3]
  (the conjugate of h3[h3]).  The enumeration oracle agrees, and neither
  variant can touch weight 9: the point factor adds H^1 of weight <= 3,
  the closed division adds V[1] x H^2 of weight <= 7.  Criterion 3 pins
  the disc H^3 with 1*V[2^3,1^3] as well.
- Criterion 5b (even branching of Sym^2(Sym^3) = h2[h3] = s6 + s42): the
  source prints a value containing V[2^3], which cannot occur since
  branching s_lam only yields V_mu with mu inside lam.  The printed value
  is the branching of h3[h2] = s6 + s42 + s222, i.e. Sym^3(Sym^2), with
  the plethysm order swapped.  Weyl dimensions at g = 6 separate the two:
  dim Sym^2(Sym^3 C^12) = 66430 and dim Sym^3(Sym^2 C^12) = 82160.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

from cli_run import invoke
from graph_oracle import (
    igraph,
    presentation_audit,
    random_graph,
    reduce_trivalent,
    theta_with_tail,
)

from torelli.branching import (
    ClassSeries,
    OrthSympClass,
    class_to_schur,
    dim_irrep,
    nl_product,
    restrict_schur,
)
from torelli.characters import decompose
from torelli.graphs import reduce as reduce_graph
from torelli.invariants import matching_span_rank
from torelli.labels import LabelMonomial, l_class
from torelli.partitions import Partition, parse_partition, partitions_of
from torelli.pipeline import (
    PipelineConfig,
    compute_cohomology,
    divide_by_fiber,
    oracle_check,
    stable_range,
)
from torelli.setparts import LabelledPartition, sigma_character
from torelli.symfunc import (
    LambdaSeries,
    SymFunc,
    change_basis,
    e_sym,
    exp_h,
    h_sym,
    lr_coefficient,
    omega,
    p_sym,
    plethysm,
)


def cls(epsilon, text):
    coeffs = {}
    if text.strip() != "0":
        for piece in text.split("+"):
            piece = piece.strip()
            if "*" in piece:
                mult, lam = piece.split("*")
                coeffs[parse_partition(lam)] = int(mult)
            else:
                coeffs[parse_partition(piece)] = 1
    return OrthSympClass(epsilon, coeffs)


def _verdict(name, ok):
    print(f"acceptance {name}: {'pass' if ok else 'FAIL'}")
    return ok


def test_criterion_1_dimension_six_golden_table():
    start = time.monotonic()
    result = invoke(["cohomology", "--dim", "6", "--max-degree", "4", "--format", "json"])
    took = time.monotonic() - start
    payload = json.loads(result.output)
    got = {
        row["degree"]: {
            tuple(c["lambda"]): c["mult"] for c in row["classes"]
        }
        for row in payload["table"]
    }
    expected = {
        0: {(): 1},
        1: {(1,): 1},
        2: {(1, 1): 1, (): 1},
        3: {(1, 1, 1): 2, (1,): 2},
        4: {(1, 1, 1, 1): 2, (2, 1, 1): 1, (1, 1): 3, (2,): 1, (): 2},
    }
    ok = result.exit_code == 0 and got == expected and took < 10.0
    assert _verdict("criterion 1 (dimension-6 golden table)", ok)
    assert took < 10.0


def test_criterion_2_dimension_six_stage_dumps():
    table = compute_cohomology(PipelineConfig(two_n=6, max_degree=4))
    chb = table.snapshots["chB"]
    ok_chb = (
        chb.coefficient(1) == change_basis("h1")
        and chb.coefficient(2) == SymFunc.scalar(2)
        and chb.coefficient(3) == change_basis("h3 + h1")
        and chb.coefficient(4) == change_basis("h2") + SymFunc.scalar(1)
    )
    pleth = table.snapshots["plethysm"]
    ok_pleth = (
        pleth.coefficient(0) == SymFunc.scalar(1)
        and pleth.coefficient(1) == change_basis("s[1]")
        and pleth.coefficient(2) == change_basis("2 + s[2]")
        and pleth.coefficient(3) == change_basis("3*s[1] + 2*s[3]")
        and pleth.coefficient(4)
        == change_basis("4 + s[1^2] + 4*s[2] + s[3,1] + 2*s[4]")
    )
    post = table.snapshots["post-D"]
    ok_post = (
        post.coefficient(0) == OrthSympClass.unit(-1)
        and post.coefficient(1) == cls(-1, "1")
        and post.coefficient(2) == cls(-1, "2*0 + 1^2")
        and post.coefficient(3) == cls(-1, "3*1 + 2*1^3")
        and post.coefficient(4) == cls(-1, "4*0 + 2 + 4*1^2 + 2,1^2 + 2*1^4")
    )
    ok = ok_chb and ok_pleth and ok_post
    assert _verdict("criterion 2 (dimension-6 stage dumps)", ok)


def test_criterion_3_dimension_two_tables():
    start = time.monotonic()
    result = invoke(["cohomology", "--dim", "2", "--max-degree", "3", "--format", "json"])
    took = time.monotonic() - start
    payload = json.loads(result.output)
    got = {
        row["degree"]: {
            tuple(c["lambda"]): c["mult"] for c in row["classes"]
        }
        for row in payload["table"]
    }
    h2 = cls(-1, "2*1^2 + 2,1^2 + 2*1^4 + 2^2,1^2 + 1^6")
    h3 = cls(
        -1,
        "1 + 2,1 + 3*1^3 + 2*2^2,1 + 3*2,1^3 + 3,2,1^2 + 2*2^3,1 + 3,2^3"
        " + 4*1^5 + 2*2^2,1^3 + 3^2,1^3 + 2*2,1^5 + 2^3,1^3 + 2*1^7"
        " + 2^2,1^5 + 1^9",
    )
    ok = (
        result.exit_code == 0
        and got[2] == {tuple(k): int(v) for k, v in h2.coeffs.items()}
        and got[3] == {tuple(k): int(v) for k, v in h3.coeffs.items()}
        and len(got[3]) == 16
        and took < 120.0
    )
    assert _verdict("criterion 3 (dimension-2 tables)", ok)
    assert took < 120.0


def _weight_part(x, size):
    return OrthSympClass(
        x.epsilon, {lam: c for lam, c in x.coeffs.items() if lam.size == size}
    )


def test_criterion_4_variant_series():
    inv = divide_by_fiber(ClassSeries(-1, {0: OrthSympClass.unit(-1)}, 3), 1)
    ok_inverse = (
        inv.coefficient(0) == OrthSympClass.unit(-1)
        and inv.coefficient(1) == -cls(-1, "1")
        and inv.coefficient(2) == cls(-1, "1^2 + 2")
        and inv.coefficient(3) == -cls(-1, "1 + 1^3 + 2*2,1 + 3")
    )
    _verdict("criterion 4a (closed-fibre inverse series)", ok_inverse)

    # The weight-9 part of H^3 is the Schur expansion of e3[e3] (three
    # tripods), in every variant (module docstring); the enumeration oracle
    # decomposes the same S_9 cell directly.  The printed series carried
    # 2*V[2^3,1^3] where all of these give 1*V[2^3,1^3].
    tripods = plethysm(e_sym(3), LambdaSeries.monomial(e_sym(3), 0, 0))
    oracle_w9 = OrthSympClass(-1, decompose(sigma_character(9, 1, 3, "Pprime")))
    ok_oracle = oracle_w9 == cls(
        -1, "1^9 + 2^2,1^5 + 2^3,1^3 + 3^2,1^3 + 3,2^3"
    ) and tripods.coefficient(0) == SymFunc(oracle_w9.coeffs)
    _verdict("criterion 4 (weight-9 oracle cell vs e3[e3])", ok_oracle)

    point = compute_cohomology(
        PipelineConfig(two_n=2, max_degree=3, variant="point")
    )
    corrected_p3 = cls(
        -1,
        "1^9 + 2^2,1^5 + 2*1^7 + 2^3,1^3 + 2*2,1^5 + 3^2,1^3 + 2*2^2,1^3"
        " + 4*1^5 + 3,2^3 + 2*2^3,1 + 3,2,1^2 + 3*2,1^3 + 2*2^2,1 + 4*1^3"
        " + 2,1 + 2*1",
    )
    ok_point = (
        point.entries[1] == cls(-1, "1^3 + 1")
        and point.entries[2] == cls(-1, "0 + 1^6 + 2^2,1^2 + 2*1^4 + 2,1^2 + 2*1^2")
        and point.entries[3] == corrected_p3
        and _weight_part(point.entries[3], 9) == oracle_w9
    )
    _verdict("criterion 4b (point variant vs corrected series and oracle)", ok_point)

    closed = compute_cohomology(
        PipelineConfig(two_n=2, max_degree=3, variant="closed")
    )
    corrected_c3 = cls(
        -1,
        "1^3 + 1 + 2*1^5 + 1^7 + 1^9 + 2,1^3 + 2,1^5 + 2^2,1"
        " + 2^2,1^3 + 2^2,1^5 + 2^3,1 + 2^3,1^3 + 3,2^3 + 3^2,1^3",
    )
    ok_closed = (
        closed.entries[1] == cls(-1, "1^3")
        and closed.entries[2] == cls(-1, "1^2 + 1^4 + 1^6 + 2^2,1^2")
        and closed.entries[3] == corrected_c3
        and _weight_part(closed.entries[3], 9) == oracle_w9
    )
    _verdict("criterion 4c (closed variant vs corrected series and oracle)", ok_closed)
    assert ok_inverse and ok_oracle and ok_point and ok_closed


def _dim_at(x, g):
    return sum(c * dim_irrep(lam, x.epsilon, g) for lam, c in x.coeffs.items())


def test_criterion_5_degree_six_branchings():
    cube = LambdaSeries.monomial(h_sym(3), 0, 0)
    square_of_cube = plethysm(h_sym(2), cube).coefficient(0)
    odd = restrict_schur(omega(square_of_cube), -1)
    ok_odd = odd == cls(
        -1, "1^6 + 2*1^4 + 3*1^2 + 2*0 + 2^2,1^2 + 2^2 + 2,1^2"
    )
    _verdict("criterion 5a (alternating-square branching)", ok_odd)

    # Littlewood's rule on h2[h3] = s6 + s42; the dimensions at g = 6 must
    # add up to dim Sym^2(Sym^3 C^12).
    even = restrict_schur(square_of_cube, 1)
    littlewood_even = cls(1, "2*0 + 3*2 + 2^2 + 3,1 + 2*4 + 4,2 + 6")
    ok_even = even == littlewood_even and _dim_at(even, 6) == comb(comb(14, 3) + 1, 2)
    _verdict("criterion 5b (symmetric-square branching vs Littlewood)", ok_even)

    # The printed source value contains V[2^3], impossible under s6 + s42;
    # it is the branching of h3[h2] = Sym^3(Sym^2), as its dimension shows.
    printed_even = cls(1, "3*0 + 4*2 + 2*2^2 + 2^3 + 3,1 + 2*4 + 4,2 + 6")
    cube_of_square = plethysm(
        h_sym(3), LambdaSeries.monomial(h_sym(2), 0, 0)
    ).coefficient(0)
    ok_printed = (
        restrict_schur(cube_of_square, 1) == printed_even
        and _dim_at(printed_even, 6) == comb(comb(13, 2) + 2, 3)
    )
    _verdict("criterion 5b (printed value is the branching of h3[h2])", ok_printed)
    assert ok_odd and ok_even and ok_printed


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    report6 = oracle_check(6, 5, 5)
    report2 = oracle_check(2, 5, 5)
    took = time.monotonic() - start
    ok = report6.ok and report2.ok and took < 300.0
    assert _verdict(
        f"criterion 6 (oracle equivalence, {len(report6.cells) + len(report2.cells)}"
        f" cells in {took:.1f}s)",
        ok,
    )
    assert took < 300.0


def test_criterion_7_invariant_ranks():
    start = time.monotonic()
    ok = True
    for size in (2, 4, 6):
        for g in (1, 2, 3):
            if 2 * g < size:
                continue
            for eps in (1, -1):
                rank, dim = matching_span_rank(size, g, eps)
                ok = ok and rank == dim
    rank, dim = matching_span_rank(4, 1, -1)
    ok = ok and (rank, dim) == (2, 3)
    took = time.monotonic() - start
    assert _verdict(f"criterion 7 (invariant ranks in {took:.1f}s)", ok)
    assert took < 60.0


LEAF_LABELS = {
    3: [
        LabelMonomial.e(3),
        LabelMonomial.p(3, 1),
        LabelMonomial.p(3, 2),
        LabelMonomial.p(3, 1, 2),
    ],
    2: [LabelMonomial.e(2), LabelMonomial.p(2, 1), LabelMonomial.e(2, 2)],
}


def test_criterion_8_graph_calculus():
    rng = random.Random(23)
    confluent = 0
    tries = 0
    ok = True
    while confluent < 100 and tries < 4000:
        tries += 1
        n = rng.choice([2, 3])
        g = random_graph(rng, n, LEAF_LABELS[n])
        if g is None:
            continue
        base = reduce_graph(g, variant="P")
        again = reduce_graph(g, variant="P", _rng=rng)
        ok = ok and again.coeffs == base.coeffs
        confluent += 1
    ok = ok and confluent >= 100

    kappa_e2 = LabelledPartition(1, [((1,), LabelMonomial.e(1, 2))])
    ok = ok and abs(reduce_graph(theta_with_tail()).coefficient(kappa_e2)) == 1
    ok = ok and reduce_trivalent(igraph()) == reduce_trivalent(igraph((1, 5, 6, 2)))

    audit = presentation_audit(3, 5)
    ok = ok and audit["ok"]
    assert _verdict(
        f"criterion 8 (graph calculus, {confluent} confluence checks)", ok
    )


def _l_class_genus_oracle():
    cap = 3
    q_coeffs = [Fraction(1), Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945)]
    nvars = 3

    def poly_mul(a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                if sum(mono) > cap:
                    continue
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return {m: c for m, c in out.items() if c}

    product = {(0,) * nvars: Fraction(1)}
    for var in range(nvars):
        factor = {}
        for k, c in enumerate(q_coeffs):
            mono = [0] * nvars
            mono[var] = k
            factor[tuple(mono)] = c
        product = poly_mul(product, factor)

    elementary = []
    for r in range(1, nvars + 1):
        poly = {}
        for combo in itertools.combinations(range(nvars), r):
            mono = [0] * nvars
            for v in combo:
                mono[v] = 1
            poly[tuple(mono)] = Fraction(1)
        elementary.append(poly)

    for i in range(1, cap + 1):
        reconstructed = {}
        for mu, c in l_class(i).terms.items():
            term = {(0,) * nvars: c}
            for part in mu:
                term = poly_mul(term, elementary[part - 1])
            for mono, v in term.items():
                reconstructed[mono] = reconstructed.get(mono, Fraction(0)) + v
        reconstructed = {m: c for m, c in reconstructed.items() if c}
        degree_part = {m: c for m, c in product.items() if sum(m) == i}
        if reconstructed != degree_part:
            return False
    return True


def test_criterion_9_property_suites():
    rng = random.Random(41)
    pool = [Partition(p) for q in range(6) for p in partitions_of(q)]

    ok_omega = True
    for _ in range(30):
        f = SymFunc.zero()
        for _ in range(3):
            f = f + SymFunc.schur(rng.choice(pool)) * SymFunc.scalar(
                rng.randrange(-2, 3)
            )
        ok_omega = ok_omega and omega(omega(f)) == f
    _verdict("criterion 9a (omega is an involution)", ok_omega)

    ok_round = True
    big_pool = [Partition(p) for q in range(9) for p in partitions_of(q)]
    for eps in (-1, 1):
        for _ in range(20):
            x = OrthSympClass(
                eps, {rng.choice(big_pool): rng.randrange(1, 3) for _ in range(3)}
            )
            ok_round = ok_round and restrict_schur(class_to_schur(x), eps) == x
    _verdict("criterion 9b (class-to-Schur round trip)", ok_round)

    g1 = LambdaSeries.monomial(change_basis("s[2] + s[1,1]"), 1, 3)
    g2 = LambdaSeries.monomial(change_basis("s[2,1]"), 1, 3)
    ok_pleth = (
        plethysm(h_sym(2) + h_sym(3), g2)
        == plethysm(h_sym(2), g2) + plethysm(h_sym(3), g2)
        and plethysm(h_sym(2) * h_sym(1), g2)
        == plethysm(h_sym(2), g2) * plethysm(h_sym(1), g2)
        and plethysm(p_sym(2), LambdaSeries.monomial(p_sym(3), 0, 0)).coefficient(0)
        == p_sym(6)
        and plethysm(p_sym(2), g1 + g2)
        == plethysm(p_sym(2), g1) + plethysm(p_sym(2), g2)
    )
    a = change_basis("s[1]")
    b = change_basis("s[2]")
    lhs = exp_h(LambdaSeries({1: a + b}, 3))
    rhs = exp_h(LambdaSeries({1: a}, 3)) * exp_h(LambdaSeries({1: b}, 3))
    ok_pleth = ok_pleth and lhs == rhs
    _verdict("criterion 9c (plethysm ring axioms, exponential law)", ok_pleth)

    ok_lr = True
    small = [Partition(p) for q in range(5) for p in partitions_of(q)]
    for _ in range(60):
        mu, nu = rng.choice(small), rng.choice(small)
        for lam in partitions_of(mu.size + nu.size):
            ok_lr = ok_lr and lr_coefficient(lam, mu, nu) == lr_coefficient(
                lam, nu, mu
            )
    _verdict("criterion 9d (product symmetry)", ok_lr)

    ok_nl = True
    nl_pool = [Partition(p) for q in range(4) for p in partitions_of(q)]
    for eps in (-1, 1):
        unit = OrthSympClass.unit(eps)
        for _ in range(10):
            x = OrthSympClass(eps, {rng.choice(nl_pool): 1})
            y = OrthSympClass(eps, {rng.choice(nl_pool): 1})
            z = OrthSympClass(eps, {rng.choice(nl_pool): 1})
            ok_nl = (
                ok_nl
                and nl_product(unit, x) == x
                and nl_product(x, y) == nl_product(y, x)
                and nl_product(nl_product(x, y), z) == nl_product(x, nl_product(y, z))
            )
    _verdict("criterion 9e (stable product unit/comm/assoc)", ok_nl)

    ok_l = _l_class_genus_oracle()
    _verdict("criterion 9f (L-polynomials vs genus product)", ok_l)

    ok_range = stable_range(6, 11) == 4 and stable_range(2, 10) == 6
    _verdict("criterion 9g (stable range examples)", ok_range)

    assert ok_omega and ok_round and ok_pleth and ok_lr and ok_nl and ok_l and ok_range
