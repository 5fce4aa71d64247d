"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line; every numeric claim is checked
in exact arithmetic, no tolerances anywhere.
"""

import functools
import random
from fractions import Fraction

import pytest

from hopfdiff import catalog
from hopfdiff.actions import (
    CrossedHom,
    TruncatedSmash,
    adjoint_action,
    crossed_hom_properties,
    crossed_hom_report,
    derived_action,
    derived_module_structure,
    graph_hopf_iso,
    graph_of,
    smash_product,
    trivial_action,
)
from hopfdiff.diffops import (
    DiffModuleBialgebra,
    DiffOp,
    all_diffops_on_group_algebra,
    check_diff_module_bialgebra,
    check_diffop,
    ckmm_instance_check,
    diff_to_endo,
    extend_diff_smash,
    rota_baxter_inverse,
    star,
)
from hopfdiff.exactlin import Mat, invert
from hopfdiff.groups import endo_diffop_bijection, enumerate_endos
from hopfdiff.hopf import (
    LinMap,
    basis_vec,
    zero_vec,
)
from hopfdiff.maps import (
    identity_map,
    is_algebra_hom,
    unit_counit_map,
)
from hopfdiff.solver import (
    classify_diffops,
    solve_quadratic_in_group_algebra,
    verify_against_published,
)

from reference_diffops import check_diffop_prime
from sampling import coalgebra_maps_for

F = Fraction
SEED = 20260809
MAPS_PER_ALGEBRA = 40
SUITE_ALGEBRAS = ("kC2", "kC4", "kS3", "H4", "H8")


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")
        return run
    return wrap


@pytest.fixture(scope="module")
def sampled_suite():
    rng = random.Random(SEED)
    suite = {}
    for name in SUITE_ALGEBRAS:
        h = catalog.build(name)
        suite[name] = (h, coalgebra_maps_for(h, rng, MAPS_PER_ALGEBRA))
    total = sum(len(maps) for _, maps in suite.values())
    assert total >= 200
    return suite


@pytest.fixture(scope="module")
def h8_bijective_classification():
    return classify_diffops(catalog.build("plan:H8"), bijective_only=True)


@criterion(1, "H4 classification")
def test_criterion_1_h4_classification():
    result = classify_diffops(catalog.build("plan:H4"))
    assert result.certificate == "complete"
    assert len(result.operators) == 1
    comparison = verify_against_published(result, catalog.build("expected:H4"))
    assert comparison.equal  # exact equality, no tolerance
    op = result.operators[0]
    assert op.map.matrix == unit_counit_map(catalog.build("H4")).matrix


@criterion(2, "H8 bijective classification")
def test_criterion_2_h8_bijective_classification(h8_bijective_classification):
    """The published tables D5..D8 are coalgebra maps that fail the
    difference identity, first at the pair (z, z).  Frozen hand oracle for
    that pair: D(z^2) = D((1+x+y-xy)/2) = (1+x+y-xy)/2 since D swaps x and
    y, while D(z1) z2 D(z) S(z3) = (-1+x+y+xy)/2."""
    result = h8_bijective_classification
    assert result.certificate == "complete"

    # the intermediate p^2 = 1 solution set in k[C2xC2] has exactly 16
    # elements and matches the published list
    id_branch = next(br for br in result.branches
                     if br.group_images == ["1", "x", "y", "xy"])
    assert id_branch.quadratic_candidates is not None
    assert len(id_branch.quadratic_candidates) == 16
    published_16 = solve_quadratic_in_group_algebra(
        catalog.build("C2xC2"), [0, 0, 1], [1, 0, 0, 0])
    assert {tuple(p) for p in id_branch.quadratic_candidates} == \
        {tuple(p) for p in published_16}

    # the branches with D(x) = xy or D(y) = xy are empty
    for br in result.branches:
        if br.group_images[1] == "xy" or br.group_images[2] == "xy":
            assert br.status == "empty" and not br.operators

    # exactly 4 operators, matching the published tables D1..D4
    # entry-for-entry in exact rationals; the published D5..D8 are not
    # difference operators (README, "Known discrepancies")
    expected = catalog.build("expected:H8-bijective")
    comparison = verify_against_published(result, expected)
    assert len(result.operators) == 4, (
        f"the complete bijective set has {len(result.operators)} operators, "
        "not 4; see the README section \"Known discrepancies\"")
    assert comparison.matched == ["D1", "D2", "D3", "D4"]
    assert comparison.missing == ["D5", "D6", "D7", "D8"]
    assert comparison.extra == []

    # check_diffop rejects each of D5..D8 at (z, z), see the docstring
    h8 = catalog.build("H8")
    z = h8.basis.index("z")
    for table in expected[4:]:
        rep = check_diffop(h8, Mat.from_cols(table["images"]))
        assert not isinstance(rep, DiffOp), table["name"]
        assert rep.checked == 64 and rep.skipped == [], table["name"]
        assert rep.witness == (z, z) == (4, 4), table["name"]


@criterion(3, "group/endomorphism bijection")
def test_criterion_3_group_bijection():
    expected = {"C2": 2, "C2xC2": 16, "S3": 10}
    for name, count in expected.items():
        g = catalog.build(name)
        endos = enumerate_endos(g)
        assert len(endos) == count
        pairs = endo_diffop_bijection(g)  # verifies both composites
        assert len(pairs) == count
        assert len({d.images for _, d in pairs}) == count  # |Dif| = |End|


@criterion(4, "convolution characterization suite")
def test_criterion_4_convolution_characterization_suite(sampled_suite):
    checked = 0
    verdicts = {True: 0, False: 0}
    for name in SUITE_ALGEBRAS:
        h, maps = sampled_suite[name]
        for m in maps:
            is_diff = isinstance(check_diffop(h, m), DiffOp)
            is_hom = is_algebra_hom(diff_to_endo(h, m))
            primed = check_diffop_prime(h, m)
            assert is_diff == is_hom == primed, (name, is_diff, is_hom, primed)
            verdicts[is_diff] += 1
            checked += 1
    assert checked >= 200
    assert verdicts[True] and verdicts[False]  # both directions exercised


@criterion(5, "graph and derived-module equivalences")
def test_criterion_5_graph_and_module_equivalences(sampled_suite):
    from hopfdiff.hopf import is_cocommutative

    psi_checked = 0
    for name in SUITE_ALGEBRAS:
        h, maps = sampled_suite[name]
        adj = adjoint_action(h)
        smash_alg = TruncatedSmash(adj)
        cocomm = is_cocommutative(h)
        smash_full = smash_product(adj) if cocomm else None
        for m in maps:
            direct = crossed_hom_report(adj, m.columns()).ok
            assert graph_of(m, adj, smash=smash_alg).closed == direct
            assert derived_module_structure(m, adj).ok == direct
            if direct and cocomm:
                ch = CrossedHom(m, adj, verified=True)
                psi, eps_id, rep = graph_hopf_iso(ch, smash=smash_full)
                assert rep.ok  # both composites are exact identities
                psi_checked += 1
    assert psi_checked > 0


@criterion(6, "monoid structure on Dif(kS3)")
def test_criterion_6_monoid_suite():
    ks3 = catalog.build("kS3")
    ops = all_diffops_on_group_algebra(ks3)
    assert len(ops) == 10
    unit = unit_counit_map(ks3)
    # star computes both defining formulas internally and insists they agree
    table = [[star(ks3, a.map, b.map).map.matrix for b in ops] for a in ops]
    index = {tuple(op.map.matrix.entries): i for i, op in enumerate(ops)}
    idx_table = [[index[tuple(m.entries)] for m in row] for row in table]
    unit_idx = index[tuple(unit.matrix.entries)]
    for i in range(10):
        assert idx_table[i][unit_idx] == i
        assert idx_table[unit_idx][i] == i
    for i in range(10):
        for j in range(10):
            for k in range(10):
                assert idx_table[idx_table[i][j]][k] == idx_table[i][idx_table[j][k]]
    # transport along D -> D * id is a monoid isomorphism onto (End, o)
    endos = [diff_to_endo(ks3, op.map) for op in ops]
    assert len({tuple(f.matrix.entries) for f in endos}) == 10
    for i in range(10):
        for j in range(10):
            assert endos[i].compose(endos[j]).matrix == endos[idx_table[i][j]].matrix


@criterion(7, "Rota-Baxter inverses on kS3")
def test_criterion_7_rota_baxter_suite():
    ks3 = catalog.build("kS3")
    ops = all_diffops_on_group_algebra(ks3)
    bijective = [op for op in ops if op.bijective]
    for op in bijective:
        b, rep = rota_baxter_inverse(ks3, op)
        assert rep.ok  # the weight-one identity holds exhaustively
        assert invert(b.matrix) == op.map.matrix  # and round-trips back
    # exactly one bijective difference operator on kS3, the lift of
    # g -> g^-1.  Every difference operator is D(g) = phi(g) g^-1 for one
    # of the ten endomorphisms phi of S3.  For phi an automorphism c_a
    # (all six are inner), both e and a go to e, and for a = e every
    # element does; for phi with kernel A3, both e and the transposition
    # in its image go to e.  Only phi trivial gives a permutation, namely
    # g -> g^-1.  The six-element count belongs to k[C2xC2] (README,
    # "Known discrepancies").
    assert len(bijective) == 1, (
        f"kS3 has {len(bijective)} bijective difference operator(s), not 1; "
        "see the README section \"Known discrepancies\"")
    assert bijective[0].map.matrix == catalog.build("op:inv:kS3").matrix


@criterion(8, "smash extension on kC4 # kC2")
def test_criterion_8_smash_extension():
    kc4 = catalog.build("kC4")
    kc2 = catalog.build("kC2")
    action = catalog.build("action:inv:kC2:kC4")
    pair = check_diff_module_bialgebra(action, identity_map(kc4), identity_map(kc2))
    assert isinstance(pair, DiffModuleBialgebra)
    smash, ext = extend_diff_smash(pair)
    assert ext.verified
    for k in range(4):
        col = ext.map.matrix.col(k * 2 + 1)  # the image of r^k # s
        expected = zero_vec(8)
        expected[((3 * k) % 4) * 2 + 1] = F(1)
        assert col == expected
    rejected = check_diff_module_bialgebra(action, unit_counit_map(kc4), identity_map(kc2))
    assert not isinstance(rejected, DiffModuleBialgebra)
    assert rejected.failures[0] == ("s", "r")


@criterion(9, "truncated free-Lie suite")
def test_criterion_9_truncated_free_lie():
    from hopfdiff.freelie import adjoint_derivation_action, diffop_from_hom, mm_instance_check
    from hopfdiff.truncated import TruncatedTensor, lyndon_dims

    dims = lyndon_dims(2, 4)
    assert dims["lyndon"] == [2, 1, 2, 3]
    assert dims["primitive_dims"] == [2, 1, 2, 3]
    assert dims["agree"]

    tv = TruncatedTensor(2, 4)
    rep = diffop_from_hom(tv, [zero_vec(tv.dim), zero_vec(tv.dim)])
    assert rep.ok
    for i, col in enumerate(rep.details["D"]):
        expected = zero_vec(tv.dim)
        expected[0] = tv.counit_coeff(i)
        assert col == expected  # D = u o eps exactly

    rep = diffop_from_hom(tv, [list(tv.generator_vec(0)), list(tv.generator_vec(1))])
    assert rep.ok
    dab = rep.details["D"][tv.index[(0, 1)]]
    expected = zero_vec(tv.dim)
    expected[tv.index[(0, 1)]] = F(2)
    expected[tv.index[(1, 0)]] = F(-1)
    assert dab == expected  # D(vw) = 2vw - wv

    tv3 = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv3)
    neg = [[-c for c in tv3.generator_vec(g)] for g in range(2)]
    mm = mm_instance_check(adj, neg)
    assert mm.ok and mm.details["uniqueness"]["unique"]
    cols = [None if c is None else list(c) for c in mm.details["pibar"]]
    cols[tv3.index[(0, 1)]][tv3.index[(0, 1)]] += F(1)
    perturbed = mm_instance_check(adj, neg, candidate_cols=cols)
    assert not perturbed.ok and perturbed.failures


@criterion(10, "derived structures")
def test_criterion_10_derived_structures():
    # Lemma on convolution inverses: all four identities, on three instances
    h4 = catalog.build("H4")
    ks3 = catalog.build("kS3")
    inv_action = catalog.build("action:inv:kC2:kC4")
    ch1 = CrossedHom.verify(unit_counit_map(h4), adjoint_action(h4))
    assert crossed_hom_properties(ch1).ok
    ch2 = CrossedHom.verify(identity_map(ks3), trivial_action(ks3, ks3))
    assert crossed_hom_properties(ch2).ok
    pi_raw = catalog.build("op:crossed:kC2:kC4")
    pi = LinMap(inv_action.acting, inv_action.target, pi_raw.matrix)
    ch3 = CrossedHom.verify(pi, inv_action)
    assert crossed_hom_properties(ch3).ok

    # derived group actions and crossed homomorphisms
    from hopfdiff.groups import (
        GroupAction,
        GroupMap,
        adjoint_action as group_adjoint,
        derived_group_action,
    )

    s3 = catalog.build("S3")
    inv = GroupMap(s3, s3, tuple(s3.inv(a) for a in range(6)))
    derived, dbar = derived_group_action(inv, group_adjoint(s3))
    assert dbar.images == tuple(range(6))
    c2, c4 = catalog.build("C2"), catalog.build("C4")
    c2_on_c4 = GroupAction(c2, c4, (tuple(range(4)),
                                    tuple((-h) % 4 for h in range(4)))).validate()
    derived_group_action(GroupMap(c2, c4, (0, 1)), c2_on_c4)

    # derived Lie actions
    from hopfdiff.lie import FinLie, adjoint_lie_action, derived_lie_action

    aff1 = FinLie.from_pairs(["a", "b"], {(0, 1): [0, 1]}, "aff1")
    d = Mat.from_cols([[0, 1], [0, 0]])
    derived_lie_action(d, adjoint_lie_action(aff1))

    # derived Hopf actions with the antipode-composed crossed homomorphism,
    # including the group-like and primitive restriction formulas
    derived_act, derived_ch, rep = derived_action(ch2)
    assert rep.ok and derived_ch.verified
    assert derived_act.tensor == adjoint_action(ks3).tensor
    inv_op = catalog.build("op:inv:kS3")
    ch4 = CrossedHom.verify(LinMap(ks3, ks3, inv_op.matrix), adjoint_action(ks3))
    derived_act, derived_ch, rep = derived_action(ch4)
    assert rep.ok  # the report includes the restriction-formula checks

    # structure-theorem instances on kS3 and on the smash square of kC2
    for op in all_diffops_on_group_algebra(ks3):
        assert ckmm_instance_check(ks3, op)["ok"]
    kc2 = catalog.build("kC2")
    smash = smash_product(trivial_action(kc2, kc2))
    cols = [basis_vec(4, (g // 2) * 2) for g in range(4)]  # id (x) u.eps
    d = check_diffop(smash, Mat.from_cols(cols))
    assert isinstance(d, DiffOp)
    assert ckmm_instance_check(smash, d)["ok"]
