from fractions import Fraction

import pytest

from hopfdiff import catalog, formats
from hopfdiff.actions import trivial_action
from hopfdiff import diffops
from hopfdiff.diffops import (
    CheckReport,
    DiffModuleBialgebra,
    DiffOp,
    all_diffops_on_group_algebra,
    check_diff_module_bialgebra,
    check_diffop,
    ckmm_instance_check,
    conjugate,
    diff_to_endo,
    endo_to_diff,
    extend_diff_smash,
    is_diffop,
    monoid_table,
    restricts_to_group_diffop,
    rota_baxter_inverse,
    star,
)
from hopfdiff.exactlin import Mat
from hopfdiff.groups import check_group_diffop
from hopfdiff.hopf import (
    FinDimHopf,
    IntColumns,
    LinMap,
    axiom_report,
    basis_vec,
    generating_rows,
    zero_vec,
)
from hopfdiff.maps import (
    coalgebra_map_report,
    identity_map,
    int_columns,
    is_algebra_hom,
    is_coalgebra_hom,
    rank,
    unit_counit_map,
)

from reference_diffops import check_diffop_prime
from reference_linalg import reference_inverse, reference_row_space


def inverse_of(m: Mat) -> Mat | None:
    """The inverse of m by the Fraction Gauss-Jordan of reference_linalg."""
    inv = reference_inverse([m.row(i) for i in range(m.rows)])
    return None if inv is None else Mat.from_rows(inv)

F = Fraction


def test_ueps_is_non_bijective_diffop(h4):
    res = check_diffop(h4, unit_counit_map(h4))
    assert isinstance(res, DiffOp)
    assert res.verified and not res.bijective


def test_id_on_h4_fails_with_witness(h4):
    res = check_diffop(h4, identity_map(h4))
    assert isinstance(res, CheckReport)
    assert res.witness == (1, 2)  # the pair (g, x)


@pytest.mark.parametrize("candidate", [
    catalog.build("op:crossed:kC2:kC4"),  # the crossed homomorphism kC2 -> kC4
    IntColumns((((0, 1),), ((1, 1),), ((2, 1),)), 1),
    [[1, 0], [0, 1], [0, 0]],
    [None, [1, 0, 0]],
], ids=["4x2", "3x3", "three-columns", "long-column"])
def test_check_diffop_rejects_a_candidate_of_another_shape(kc2, candidate):
    with pytest.raises(ValueError, match="is a 2 x 2 matrix"):
        check_diffop(kc2, candidate)


def test_paper_d1_table_verifies(h8):
    table = catalog.build("expected:H8-bijective")[0]
    res = check_diffop(h8, LinMap(h8, h8, table["images"]))
    assert isinstance(res, DiffOp) and res.bijective


def test_printed_swap_family_fails_the_defining_identity(h8):
    """The published swap-branch tables are coalgebra maps but violate
    D(xy) = D(x1) x2 D(y) S(x3); the first witness is the pair (z, z).

    Oracle, by hand from the printed relations with w = z^2:
    the right side collapses to (-1+x+y+xy)/2, yet D(z^2) = w.
    """
    from hopfdiff.maps import is_coalgebra_hom

    swap = [0, 2, 1, 3]
    d5_cols = [basis_vec(8, g) for g in swap] + [basis_vec(8, 4 + j) for j in range(4)]
    d5 = LinMap(h8, h8, d5_cols)
    assert is_coalgebra_hom(d5)
    res = check_diffop(h8, d5)
    assert isinstance(res, CheckReport)
    assert (4, 4) in res.failures
    # frozen hand computation of the two sides at (z, z)
    lhs = d5.apply(h8.mult_basis(4, 4))
    assert lhs == [F(1, 2), F(1, 2), F(1, 2), F(-1, 2), 0, 0, 0, 0]
    from hopfdiff.hopf import sweedler_expand, vec_add, vec_scale

    rhs = zero_vec(8)
    for (t1, t2, t3), c in sweedler_expand(h8, basis_vec(8, 4), 2).items():
        term = h8.mult_vec(d5.image_of_basis(t1), basis_vec(8, t2))
        term = h8.mult_vec(term, d5.image_of_basis(4))
        term = h8.mult_vec(term, h8.antipode_basis(t3))
        rhs = vec_add(rhs, vec_scale(c, term))
    assert rhs == [F(-1, 2), F(1, 2), F(1, 2), F(1, 2), 0, 0, 0, 0]


def test_prime_identity_agrees(h4, h8):
    assert check_diffop_prime(h4, unit_counit_map(h4))
    table = catalog.build("expected:H8-bijective")[0]
    assert check_diffop_prime(h8, LinMap(h8, h8, table["images"]))
    assert not check_diffop_prime(h4, identity_map(h4))


def test_diff_to_endo_examples(kc2, h4, h8):
    # D = u o eps convolves with id to the identity
    assert diff_to_endo(h4, unit_counit_map(h4)) == identity_map(h4)
    # on kC2, D = id gives F(g) = g^2 = 1
    f = diff_to_endo(kc2, identity_map(kc2))
    assert f.image_of_basis(1) == basis_vec(2, 0)
    # theorem direction on H8: D1 * id is an algebra homomorphism
    table = catalog.build("expected:H8-bijective")[0]
    d1 = LinMap(h8, h8, table["images"])
    assert is_algebra_hom(diff_to_endo(h8, d1))


def test_endo_diff_round_trip_on_cocommutative(ks3):
    for op in all_diffops_on_group_algebra(ks3):
        f = diff_to_endo(ks3, op.map)
        assert endo_to_diff(ks3, f) == op.map
        from hopfdiff.maps import is_coalgebra_hom

        assert is_coalgebra_hom(f) and is_algebra_hom(f)


def test_star_unit_laws(ks3):
    ops = all_diffops_on_group_algebra(ks3)
    unit = unit_counit_map(ks3)
    for op in ops[:4]:
        assert star(ks3, op.map, unit).map == op.map
        assert star(ks3, unit, op.map).map == op.map


def test_star_id_on_kc2(kc2):
    res = star(kc2, identity_map(kc2), identity_map(kc2))
    assert res.map == identity_map(kc2)  # g -> g^3 = g


def test_star_transport_is_composition(ks3):
    ops = all_diffops_on_group_algebra(ks3)
    assert len(ops) == 10
    endos = [diff_to_endo(ks3, op.map) for op in ops]
    for i in (0, 3, 7):
        for j in (1, 5, 9):
            prod = star(ks3, ops[i].map, ops[j].map)
            assert diff_to_endo(ks3, prod.map).matrix == \
                endos[i].compose(endos[j]).matrix


def test_star_rejects_noncocommutative(h8):
    with pytest.raises(ValueError, match="cocommutative"):
        star(h8, unit_counit_map(h8), unit_counit_map(h8))


def _endomorphisms(table) -> list:
    """Every map f of the group with this product table such that
    f(ab) = f(a) f(b), by backtracking over the images of 0, 1, ...: a
    partial map is kept while every product among its elements is."""
    n = len(table)
    found = []

    def extend(images):
        k = len(images)
        if k == n:
            found.append(tuple(images))
            return
        for image in range(n):
            images.append(image)
            if all(table[images[a]][images[b]] == images[table[a][b]]
                   for a in range(k + 1) for b in range(k + 1) if table[a][b] <= k):
                extend(images)
            images.pop()

    extend([])
    return found


@pytest.mark.parametrize("group", ["C4", "C2xC2", "S3", "D4"])
def test_monoid_table_is_composition_of_endomorphisms(group):
    """An oracle with no hopfdiff arithmetic: on kG the difference operator
    D stands for the endomorphism f(g) = D(g) g, and D * D' for f o f'.
    End(G) is found by backtracking over the catalog's group table, and
    each operator's f is read off its matrix through the same table."""
    table = catalog.build(group).table
    h = catalog.build("k" + group)
    ops = all_diffops_on_group_algebra(h)
    fs = []
    for op in ops:
        images = []
        for g in range(len(table)):
            [(d, c)] = [(r, c) for r in range(len(table)) if (c := op.map.matrix[(r, g)])]
            assert c == 1
            images.append(table[d][g])
        fs.append(tuple(images))
    # the operators' endomorphisms are End(G), each exactly once
    assert sorted(fs) == sorted(_endomorphisms(table))
    assert len(set(fs)) == len(fs)
    index = {f: k for k, f in enumerate(fs)}
    assert monoid_table(h, ops)[0] == [[index[tuple(fi[x] for x in fj)] for fj in fs]
                                       for fi in fs]


def test_monoid_table_rejects_a_non_operator_by_its_two_formulas(ks3):
    """g -> (12) for every g sends group-likes to group-likes but is no
    difference operator.  First in the list, its whole row of star
    products is formed before any lookup, and the two defining formulas
    of a product in it disagree."""
    bad = [basis_vec(ks3.dim, 1)] * ks3.dim
    assert not isinstance(check_diffop(ks3, LinMap(ks3, ks3, bad)), DiffOp)
    ops = all_diffops_on_group_algebra(ks3)
    with pytest.raises(ValueError, match="disagree"):
        monoid_table(ks3, [DiffOp(LinMap(ks3, ks3, bad), False, False)] + ops)


def test_conjugate_identity_automorphism(h4):
    d = check_diffop(h4, unit_counit_map(h4))
    res = conjugate(h4, identity_map(h4), d.map)
    assert res.map == unit_counit_map(h4)


def test_conjugate_by_h8_swap_stays_classified(h8):
    sigma = catalog.build("aut:H8:swap")
    sigma = LinMap(h8, h8, sigma.cols)
    classified = {tuple(tuple(t["images"][j]) for j in range(8))
                  for t in catalog.build("expected:H8-bijective")[:4]}
    table = catalog.build("expected:H8-bijective")[0]
    d1 = LinMap(h8, h8, table["images"])
    res = conjugate(h8, sigma, d1)
    image = tuple(tuple(res.map.matrix.col(j)) for j in range(8))
    assert image in classified


def test_conjugation_by_inner_automorphism_permutes_dif_ks3(ks3):
    s3 = catalog.build("S3")
    # conjugation by the transposition (12), lifted to kS3
    h = 1
    cols = [basis_vec(6, s3.conjugate(h, a)) for a in range(6)]
    sigma = LinMap(ks3, ks3, cols)
    ops = all_diffops_on_group_algebra(ks3)
    originals = {tuple(op.map.matrix.entries) for op in ops}
    conjugated = {tuple(conjugate(ks3, sigma, op.map).map.matrix.entries) for op in ops}
    assert conjugated == originals


# maps that fail one test of a Hopf automorphism each: (algebra, its
# columns, or None for u o eps, and the test that fails)
NON_AUTOMORPHISMS = [
    ("H4", None, "invertible"),
    # g -> -g: an algebra automorphism, but D(-g) = -g (x) g
    ("kC2", [[1, 0], [0, -1]], "coalgebra"),
    # g <-> g^2: it permutes the group-likes, but g g = g^2 goes to g and
    # g^2 g^2 = 1
    ("kC4", [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], "algebra"),
    # 1 <-> g^2 commutes with S as well, and fails the unit alone
    ("kC4", [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], "algebra"),
]


def test_conjugate_rejects_non_automorphism():
    for name, columns, fails in NON_AUTOMORPHISMS:
        h = catalog.build(name)
        sigma = unit_counit_map(h) if columns is None else LinMap(h, h, columns)
        verdicts = {"algebra": is_algebra_hom(sigma), "coalgebra": is_coalgebra_hom(sigma),
                    "invertible": rank(sigma.cols.cols, h.dim) == h.dim}
        assert verdicts == {kind: kind != fails for kind in verdicts}, name
        d = check_diffop(h, unit_counit_map(h))
        with pytest.raises(ValueError, match="automorphism"):
            conjugate(h, sigma, d.map)


def test_rota_baxter_on_kc2_identity(kc2):
    d = check_diffop(kc2, identity_map(kc2))
    b, rep = rota_baxter_inverse(kc2, d)
    assert rep.ok
    assert b.matrix == Mat.identity(2)


def test_rota_baxter_rejects_singular(kc2):
    d = check_diffop(kc2, unit_counit_map(kc2))
    with pytest.raises(ValueError, match="singular"):
        rota_baxter_inverse(kc2, d)


def test_rota_baxter_requires_cocommutative(h4):
    d = check_diffop(h4, unit_counit_map(h4))
    with pytest.raises(ValueError, match="cocommutative"):
        rota_baxter_inverse(h4, d)


def test_ks3_has_exactly_one_bijective_diffop(ks3):
    """Brute force over all ten difference operators: only the lift of
    g -> g^-1 is invertible as a linear map, and it Rota-Baxter inverts."""
    ops = all_diffops_on_group_algebra(ks3)
    assert len(ops) == 10
    bijective = [op for op in ops if op.bijective]
    assert len(bijective) == 1
    expected = catalog.build("op:inv:kS3")
    assert bijective[0].map.matrix == expected.matrix
    b, rep = rota_baxter_inverse(ks3, bijective[0])
    assert rep.ok
    assert inverse_of(b.matrix) == bijective[0].map.matrix  # round trip


def test_kc2xc2_has_six_bijective_diffops_all_rota_baxter(kc2xc2):
    """The six bijective difference operators on k[C2xC2] are exactly the
    lifts of its automorphism group (which is the symmetric group on
    three letters); each inverts to a verified Rota-Baxter operator."""
    ops = all_diffops_on_group_algebra(kc2xc2)
    assert len(ops) == 16
    bijective = [op for op in ops if op.bijective]
    assert len(bijective) == 6
    for op in bijective:
        b, rep = rota_baxter_inverse(kc2xc2, op)
        assert rep.ok
        assert inverse_of(b.matrix) == op.map.matrix


def test_diff_module_bialgebra_adjoint_self(ks3):
    from hopfdiff.actions import adjoint_action

    d = check_diffop(ks3, unit_counit_map(ks3))
    res = check_diff_module_bialgebra(adjoint_action(ks3), d.map, d.map)
    assert isinstance(res, DiffModuleBialgebra)


def test_diff_module_bialgebra_inversion_pair(kc4, kc2, inversion_action):
    res = check_diff_module_bialgebra(inversion_action, identity_map(kc4), identity_map(kc2))
    assert isinstance(res, DiffModuleBialgebra)


def test_diff_module_bialgebra_incompatible_pair(kc4, kc2, inversion_action):
    res = check_diff_module_bialgebra(inversion_action, unit_counit_map(kc4), identity_map(kc2))
    assert isinstance(res, CheckReport)
    assert res.failures[0] == ("s", "r")


def test_extend_diff_smash_trivial_collapse(kc2):
    triv = trivial_action(kc2, kc2)
    d = unit_counit_map(kc2)
    m = check_diff_module_bialgebra(triv, d, d)
    smash, ext = extend_diff_smash(m)
    assert ext.map.matrix == unit_counit_map(smash).matrix


def test_extend_diff_smash_inversion_formula(kc4, kc2, inversion_action):
    m = check_diff_module_bialgebra(inversion_action, identity_map(kc4), identity_map(kc2))
    smash, ext = extend_diff_smash(m)
    # D(r^k # s) = r^(3k) # s and D(r^k # 1) = r^k # 1
    for k in range(4):
        col = ext.map.matrix.col(k * 2 + 1)
        expected = zero_vec(8)
        expected[((3 * k) % 4) * 2 + 1] = F(1)
        assert col == expected
        col = ext.map.matrix.col(k * 2)
        expected = zero_vec(8)
        expected[k * 2] = F(1)
        assert col == expected


def test_extend_diff_smash_tensor_product_case(kc2, kc4):
    triv = trivial_action(kc2, kc4)
    m = check_diff_module_bialgebra(triv, identity_map(kc4), identity_map(kc2))
    smash, ext = extend_diff_smash(m)
    # with the trivial action the extension is D_H (x) D_K
    for x in range(4):
        for a in range(2):
            col = ext.map.matrix.col(x * 2 + a)
            expected = zero_vec(8)
            expected[x * 2 + a] = F(1)
            assert col == expected


def test_restriction_to_grouplikes_is_group_diffop(ks3, h8):
    inv = catalog.build("op:inv:kS3")
    _, gmap, ok = restricts_to_group_diffop(ks3, inv)
    assert ok and check_group_diffop(gmap)
    table = catalog.build("expected:H8-bijective")[0]
    d1 = LinMap(h8, h8, table["images"])
    _, gmap, ok = restricts_to_group_diffop(h8, d1)
    assert ok


def test_every_verified_diffop_restricts_to_group_diffop(ks3, kc2xc2, h8, h8_classification):
    for h in (ks3, kc2xc2):
        for op in all_diffops_on_group_algebra(h):
            _, gmap, ok = restricts_to_group_diffop(h, op.map)
            assert ok
    for op in h8_classification.operators:
        _, gmap, ok = restricts_to_group_diffop(h8, op.map)
        assert ok


def test_ckmm_on_ks3_all_operators(ks3):
    for op in all_diffops_on_group_algebra(ks3):
        rep = ckmm_instance_check(ks3, op)
        assert rep["ok"], rep
        assert rep["primitives_trivial"] and rep["reconstruction_identity"]


def test_group_algebra_lifts_follow_a_permuted_declaration(ks3):
    """The lifted operators and the reconstruction read the declared order
    of the group-like basis, not the basis order."""
    data = formats.algebra_to_dict(ks3)
    data["coradical_group_basis"] = [1, 0, 2, 3, 4, 5]
    permuted = formats.algebra_from_dict(data)
    ops = all_diffops_on_group_algebra(permuted)
    assert (sorted(op.map.matrix.entries for op in ops)
            == sorted(op.map.matrix.entries for op in all_diffops_on_group_algebra(ks3)))
    for op in ops:
        assert ckmm_instance_check(permuted, op)["ok"]


def test_ckmm_on_smash_product_with_id_ueps(kc2):
    from hopfdiff.actions import smash_product

    smash = smash_product(trivial_action(kc2, kc2))
    # D = id (x) u.eps on k[C2 x C2]: the lift of (g, h) -> (g, 1)
    cols = []
    for g in range(2):
        for h in range(2):
            cols.append(basis_vec(4, g * 2 + 0))
    d = check_diffop(smash, LinMap(smash, smash, cols))
    assert isinstance(d, DiffOp)
    rep = ckmm_instance_check(smash, d)
    assert rep["ok"]


def test_ckmm_rejects_non_pointed_input(h8):
    table = catalog.build("expected:H8-bijective")[0]
    d1 = check_diffop(h8, LinMap(h8, h8, table["images"]))
    with pytest.raises(ValueError, match="cocommutative"):
        ckmm_instance_check(h8, d1)


@pytest.mark.parametrize("make_map, failures", [
    (unit_counit_map, []),
    (identity_map, [(1, 2), (2, 1)]),
])
def test_truncated_carrier_skip_accounting(make_map, failures):
    """On T(V) with two letters at budget 2, every pair whose product
    leaves the budget is skipped with its degree, in pair order, and the
    partial verdict is returned as a report, never as a DiffOp."""
    from hopfdiff.truncated import TruncatedTensor

    tv = TruncatedTensor(2, 2)
    res = check_diffop(tv, make_map(tv))
    assert isinstance(res, CheckReport)
    expected_skips = [(i, j, f"degree {tv.degree(i) + tv.degree(j)} exceeds budget 2")
                      for i in range(tv.dim) for j in range(tv.dim)
                      if tv.degree(i) + tv.degree(j) > 2]
    assert res.checked == 17
    assert len(res.skipped) == 32
    assert res.skipped[0] == (1, 3, "degree 3 exceeds budget 2")
    assert res.skipped == expected_skips
    assert res.failures == failures
    assert res.ok is (not failures)


@pytest.mark.parametrize("make_map, failures", [
    (unit_counit_map, []),
    (identity_map, [(1, 2), (1, 3), (2, 1), (3, 1)]),
])
def test_column_table_verdict_is_a_report(h4, make_map, failures):
    """A column table is checked like its matrix, on every pair, but the
    verdict is always the report: only a map or its integer columns come
    back as a DiffOp."""
    m = make_map(h4)
    res = check_diffop(h4, m.columns())
    assert isinstance(res, CheckReport)
    assert (res.ok, res.failures, res.skipped, res.checked) == (not failures, failures, [], 16)
    assert isinstance(check_diffop(h4, m), DiffOp) is (not failures)
    assert isinstance(check_diffop(h4, m.cols), DiffOp) is (not failures)


# -- generator-closure verdicts: seeded faults ------------------------------------

def word_span_rank(h, generators) -> int:
    """The dimension of the span of the unit and the left-normed words in
    the given basis elements, by repeated rational products."""
    words = [h.unit_vec()]
    frontier = list(words)
    while frontier:
        rank = len(reference_row_space(words))
        fresh = []
        for w in frontier:
            for g in generators:
                v = h.mult_vec(w, basis_vec(h.dim, g))
                if len(reference_row_space(words + [v])) > rank:
                    words.append(v)
                    fresh.append(v)
                    rank += 1
        frontier = fresh
    return len(reference_row_space(words))


def test_generating_rows_of_h8_contain_z(h8):
    rows = generating_rows(h8)
    assert [h8.label(i) for i in rows] == ["1", "x", "y", "z"]
    assert word_span_rank(h8, rows[1:]) == 8


@pytest.mark.parametrize("name", ["D5", "D6", "D7", "D8"])
def test_closure_without_z_would_accept_published_non_operators(h8, name):
    """D5..D8 are coalgebra maps that fail the difference identity only
    once x = z is checked.  The words in x and y span the 4-dimensional
    group algebra, so a closure seeded without z, or one that skipped the
    rank check, would accept them; the shipped rows contain z and refuse
    them, and the full report gives the failure at (z, z)."""
    (images,) = [t["images"] for t in catalog.build("expected:H8-bijective")
                 if t["name"] == name]
    m = LinMap(h8, h8, images)
    scaled = int_columns(m)
    assert coalgebra_map_report(h8, h8, m).ok
    assert next(diffops._identity_failures(h8, scaled, (0, 1, 2)), None) is None
    assert word_span_rank(h8, (1, 2)) == 4
    assert next(diffops._identity_failures(h8, scaled, generating_rows(h8)), None) is not None
    assert is_diffop(h8, m) is None
    report = check_diffop(h8, m)
    assert isinstance(report, CheckReport) and (4, 4) in report.failures


def rebased(h: FinDimHopf, cols: list) -> FinDimHopf:
    """h on the basis whose elements have the coordinate vectors cols."""
    p_inv = inverse_of(Mat.from_cols(cols))
    n = h.dim
    comult = []
    for c in cols:
        terms: dict = {}
        for (i, j), x in h.comult_vec(c).items():
            for a, y in enumerate(p_inv.col(i)):
                for b, z in enumerate(p_inv.col(j)):
                    if y and z:
                        terms[(a, b)] = terms.get((a, b), 0) + x * y * z
        comult.append([(a, b, x) for (a, b), x in terms.items() if x])
    return FinDimHopf(f"{h.name}'", [f"b{k}" for k in range(n)],
                      [[p_inv.apply(h.mult_vec(u, v)) for v in cols] for u in cols],
                      p_inv.apply(h.unit_vec()), comult, [h.counit_vec(c) for c in cols],
                      Mat.from_cols([p_inv.apply(h.antipode_vec(c)) for c in cols]))


def test_a_unit_off_the_basis_runs_the_full_scan(h4, monkeypatch):
    """H4 on the basis 1 + g, 1 - g, x, gx has the unit (b0 + b1) / 2, not
    a basis vector, so there are no closure rows, and is_diffop takes the
    full scan of check_diffop; on H4 itself it does not."""
    n = h4.dim
    e = [basis_vec(n, i) for i in range(n)]
    h = rebased(h4, [[a + b for a, b in zip(e[0], e[1])], [a - b for a, b in zip(e[0], e[1])],
                     e[2], e[3]])
    assert axiom_report(h).ok
    assert generating_rows(h) is None
    scans = []
    report = diffops.diff_identity_report
    monkeypatch.setattr(diffops, "diff_identity_report",
                        lambda *args: scans.append(args) or report(*args))
    assert isinstance(is_diffop(h, unit_counit_map(h)), DiffOp)
    assert len(scans) == 1
    assert is_diffop(h, identity_map(h)) is None
    assert len(scans) == 2
    assert isinstance(is_diffop(h4, unit_counit_map(h4)), DiffOp)
    assert len(scans) == 2
