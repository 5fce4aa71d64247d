import itertools
import json
from fractions import Fraction

import pytest

from hopfdiff import catalog
from hopfdiff.cli import run
from hopfdiff.diffops import DiffOp, all_diffops_on_group_algebra, check_diffop
from hopfdiff.exactlin import Mat
from hopfdiff.fingroup import coradical_group
from hopfdiff.hopf import LinMap, basis_vec
from hopfdiff.solver import (
    GeneratorBlock,
    SearchPlan,
    _acc_product,
    _Branch,
    _Engine,
    _PlanTables,
    classify_diffops,
    derive_plan,
    f2_characters,
    rational_roots,
    solve_quadratic_in_group_algebra,
    verify_against_published,
)

F = Fraction


def test_rational_roots():
    assert rational_roots([F(-1), F(0), F(1)]) == [F(-1), F(1)]  # t^2 = 1
    assert rational_roots([F(1), F(0), F(1)]) == []              # t^2 = -1
    assert rational_roots([F(-2), F(0), F(1)]) == []             # irrational
    assert rational_roots([F(3), F(2)]) == [F(-3, 2)]
    # the engine only asks for roots up to degree two
    with pytest.raises(ValueError, match="degree at most two"):
        rational_roots([F(0), F(-1), F(0), F(1)])


def test_characters_of_c2xc2():
    chars, _ = f2_characters(catalog.build("C2xC2"))
    assert len(chars) == 4
    assert chars[0] == [F(1)] * 4
    for chi in chars:
        for psi in chars:
            # orthogonality
            dot = sum(chi[g] * psi[g] for g in range(4))
            assert dot == (4 if chi == psi else 0)


def test_p_squared_one_in_kc2xc2_has_sixteen_solutions():
    sols = solve_quadratic_in_group_algebra(
        catalog.build("C2xC2"), [0, 0, 1], [1, 0, 0, 0])
    assert len(sols) == 16
    half = F(1, 2)
    # the published list: +-1, +-x, +-y, +-xy and the eight elements
    # (+-1 +-x +-y +-xy)/2 carrying an odd number of minus signs
    expected = set()
    for g in range(4):
        for sign in (F(1), F(-1)):
            vec = [F(0)] * 4
            vec[g] = sign
            expected.add(tuple(vec))
    for pattern in itertools.product((half, -half), repeat=4):
        if pattern.count(-half) % 2 == 1:
            expected.add(pattern)
    assert {tuple(s) for s in sols} == expected


def test_p_squared_one_in_kc2():
    sols = solve_quadratic_in_group_algebra(catalog.build("C2"), [0, 0, 1], [1, 0])
    assert {tuple(s) for s in sols} == {
        (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}


def test_p_squared_minus_one_is_empty():
    assert solve_quadratic_in_group_algebra(catalog.build("C2"), [0, 0, 1], [-1, 0]) == []


def test_quadratic_solver_rejects_higher_exponent():
    with pytest.raises(ValueError, match="exponent 2"):
        solve_quadratic_in_group_algebra(catalog.build("C4"), [0, 0, 1], [1, 0, 0, 0])


def test_classify_kc2(kc2):
    result = classify_diffops(catalog.build("plan:kC2"))
    assert result.certificate == "complete"
    assert len(result.operators) == 2


def test_classify_h4_returns_only_ueps():
    result = classify_diffops(catalog.build("plan:H4"))
    assert result.certificate == "complete"
    assert len(result.operators) == 1
    diff = verify_against_published(result, catalog.build("expected:H4"))
    assert diff.equal


def test_classify_brute_force_completeness_kc2(kc2):
    """Independent brute force over all maps determined on group-likes."""
    result = classify_diffops(catalog.build("plan:kC2"))
    found = {tuple(op.map.matrix.entries) for op in result.operators}
    passing = set()
    for images in itertools.product(range(2), repeat=2):
        cols = [basis_vec(2, g) for g in images]
        mat = Mat.from_cols(cols)
        if isinstance(check_diffop(kc2, LinMap(kc2, kc2, cols)), DiffOp):
            passing.add(tuple(mat.entries))
    assert found == passing


def test_classify_brute_force_completeness_kc2xc2(kc2xc2):
    result = classify_diffops(catalog.build("plan:kC2xC2"))
    assert result.certificate == "complete"
    found = {tuple(op.map.matrix.entries) for op in result.operators}
    passing = set()
    for images in itertools.product(range(4), repeat=4):
        cols = [basis_vec(4, g) for g in images]
        mat = Mat.from_cols(cols)
        if isinstance(check_diffop(kc2xc2, LinMap(kc2xc2, kc2xc2, cols)), DiffOp):
            passing.add(tuple(mat.entries))
    assert found == passing
    assert len(found) == 16


def test_classify_h8_complete_with_six_operators(h8_classification, h8):
    result = h8_classification
    assert result.certificate == "complete"
    assert len(result.operators) == 6
    bijective = [op for op in result.operators if op.bijective]
    assert len(bijective) == 4
    # the published identity-branch tables are all recovered
    expected_first_four = catalog.build("expected:H8-bijective")[:4]
    found = {tuple(tuple(op.map.matrix.col(j)) for j in range(8))
             for op in bijective}
    assert found == {tuple(tuple(F(c) for c in col) for col in t["images"])
                     for t in expected_first_four}


def test_classify_h8_intermediate_sixteen(h8_classification):
    # the identity branch records exactly the sixteen character-transform
    # solutions
    id_branch = next(br for br in h8_classification.branches
                     if br.group_images == ["1", "x", "y", "xy"])
    assert id_branch.quadratic_candidates is not None
    assert len(id_branch.quadratic_candidates) == 16
    sols = solve_quadratic_in_group_algebra(
        catalog.build("C2xC2"), [0, 0, 1], [1, 0, 0, 0])
    assert {tuple(p) for p in id_branch.quadratic_candidates} == \
        {tuple(p) for p in sols}


def test_quadratic_record_squares_character_roots_of_two():
    """The q(p) = r record on a system whose character forms have roots
    +-2: on the identity branch of plan:H8, the coradical part of the
    generator's image is pinned to 0 and each character form f of its
    coset part is constrained by (f / den)^2 = 4 alone.  The record takes
    r^ = 4 for every character, so r = 4 and the record is the sixteen
    solutions of p^2 = 4, twice those of p^2 = 1."""
    plan = catalog.build("plan:H8").validate()
    group, idxs, _ = coradical_group(plan.target)
    branch = _Branch(_PlanTables(plan), {b: b for b in idxs})
    engine = _Engine(branch)
    block = plan.blocks[0]
    coset_by_g = {g: b for b, (g, _) in block.cosets.items()}
    u, den = branch.images.cols[block.generator], branch.images.den
    # coordinate k of the generator's image is parameter 1 + k: pin its
    # coradical part to 0
    eqs = [{(0, 1 + g): 1} for g in idxs]
    for form in branch._character_forms(u, [coset_by_g[g] for g in idxs]):
        eq: dict = {}
        _acc_product(eq, 1, form, form)
        eq[(0, 0)] = eq.get((0, 0), 0) - 4 * den * den
        eqs.append(eq)
    engine._solve(eqs, branch.images, branch.nvars)
    want = solve_quadratic_in_group_algebra(group, [0, 0, 1], [4, 0, 0, 0])
    assert len(want) == 16
    assert sorted(map(tuple, branch.record)) == sorted(map(tuple, want))
    assert sorted(map(tuple, want)) == sorted(tuple(2 * c for c in p) for p in
                                              solve_quadratic_in_group_algebra(
                                                  group, [0, 0, 1], [1, 0, 0, 0]))


def test_classify_h8_xy_branches_have_no_bijective_operators(h8_classification):
    for br in h8_classification.branches:
        images = br.group_images
        if images[1] == "xy" or images[2] == "xy":  # D(x) = xy or D(y) = xy
            for op in br.operators:
                assert not op.bijective
            # in fact those branches are empty outright
            assert br.status == "empty"


def test_classify_h8_every_operator_reverifies(h8_classification, h8):
    for op in h8_classification.operators:
        res = check_diffop(h8, op.map)
        assert isinstance(res, DiffOp)


def test_verify_against_published_pinpoints_perturbation():
    result = classify_diffops(catalog.build("plan:H4"))
    expected = catalog.build("expected:H4")
    tampered = [{"name": "u.eps", "images":
                 [list(col) for col in expected[0]["images"]]}]
    tampered[0]["images"][2][3] = F(1, 3)
    diff = verify_against_published(result, tampered)
    assert not diff.equal
    assert diff.missing == ["u.eps"]
    assert diff.entry_mismatches[0][1] == [(2, 3)]


def test_plan_validation_rejects_bad_factorization(h4):
    block = GeneratorBlock(generator=2, cosets={2: (0, 2), 3: (0, 2)})
    plan = SearchPlan(h4, [0, 1], [block])
    with pytest.raises(ValueError):
        plan.validate()


def test_plan_validation_requires_cover(h4):
    plan = SearchPlan(h4, [0, 1], [GeneratorBlock(generator=2, cosets={2: (0, 2)})])
    with pytest.raises(ValueError, match="cover"):
        plan.validate()


@pytest.mark.parametrize("name, grouplikes, blocks, message", [
    ("kC2xC2", [0, 1], [(2, {2: (0, 2), 3: (1, 2)})],
     r"plan group-likes \[0, 1\] are not the declared coradical \[0, 1, 2, 3\] of kC2xC2"),
    ("H8", [0, 1, 2, 3], [(4, {4: (0, 4), 5: (1, 4), 6: (2, 4), 7: (3, 4)}),
                          (5, {5: (0, 5), 4: (1, 5), 7: (2, 5), 6: (3, 5)})],
     r"xz fits no block: 1 \* xz = xz is not a basis vector outside the coradical "
     r"and the earlier blocks"),
    ("H4", [0, 1], [(2, {2: (0, 2)}), (3, {3: (0, 3)})],
     r"gx fits no block: 1 \* gx = gx is not a basis vector"),
], ids=["partial-coradical", "overlapping-blocks", "split-coset"])
def test_plan_validation_rejects_what_the_engine_cannot_use(name, grouplikes, blocks, message):
    """The engine branches over the endomorphisms of the whole declared
    coradical and reads every block as one full coset.  Classified without
    these checks, 48 of the first plan's 64 branch listings contradict
    their branch's group images, and the second plan comes back partial
    with 0 operators, where H8 has 6."""
    plan = SearchPlan(catalog.build(name), grouplikes,
                      [GeneratorBlock(c, cosets) for c, cosets in blocks])
    with pytest.raises(ValueError, match=message):
        plan.validate()


# The four catalog plans as they were typed by hand before the catalog
# derived them, frozen: grouplikes, (generator, cosets) per block, and
# the commutation notes.
FROZEN_PLANS = {
    "H4": ([0, 1], [(2, {2: (0, 2), 3: (1, 2)})], {"xg": "-gx"}),
    "H8": ([0, 1, 2, 3], [(4, {4: (0, 4), 5: (1, 4), 6: (2, 4), 7: (3, 4)})],
           {"zx": "yz", "zy": "xz"}),
    "kC2": ([0, 1], [], None),
    "kC2xC2": ([0, 1, 2, 3], [], None),
}


@pytest.mark.parametrize("name", sorted(FROZEN_PLANS))
def test_derived_plan_equals_the_hand_typed_plan(name):
    grouplikes, blocks, commutation = FROZEN_PLANS[name]
    for plan in (derive_plan(catalog.build(name)), catalog.build(f"plan:{name}")):
        assert plan.grouplike_indices == grouplikes
        assert [(b.generator, b.cosets) for b in plan.blocks] == blocks
        assert plan.commutation == commutation


@pytest.mark.parametrize("name", ["kC2", "kC4", "kC2xC2", "kS3", "kD4"])
def test_derived_plan_classifies_a_group_algebra_like_enumeration(name):
    h = catalog.build(name)
    result = classify_diffops(derive_plan(h))
    assert result.certificate == "complete"
    found = [tuple(op.map.matrix.entries) for op in result.operators]
    enumerated = {tuple(op.map.matrix.entries) for op in all_diffops_on_group_algebra(h)}
    assert len(found) == len(enumerated) and set(found) == enumerated


def _d4_reckoning():
    """(endomorphisms, bijective difference operators) of D4, counted
    without hopfdiff.  D4 is the symmetry group of a square, as
    permutations of its corners, and every element is r^k s^m for the
    rotation r and a reflection s.  An endomorphism phi is fixed by
    (phi(r), phi(s)); each of the 64 pairs gives a map r^k s^m ->
    phi(r)^k phi(s)^m, kept when it is multiplicative on all pairs.  The
    difference operators are g -> phi(g) g^-1, one per endomorphism."""
    e = (0, 1, 2, 3)

    def mul(p, q):
        return tuple(p[i] for i in q)

    def power(p, k):
        out = e
        for _ in range(k):
            out = mul(out, p)
        return out

    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    words = [(k, m) for k in range(4) for m in range(2)]
    group = [mul(power(r, k), power(s, m)) for k, m in words]
    assert len(set(group)) == 8
    inv = {g: next(h for h in group if mul(g, h) == e) for g in group}
    endos = bijective = 0
    for a, b in itertools.product(group, repeat=2):
        phi = {g: mul(power(a, k), power(b, m)) for g, (k, m) in zip(group, words)}
        if all(phi[mul(g, h)] == mul(phi[g], phi[h]) for g in group for h in group):
            endos += 1
            bijective += len({mul(phi[g], inv[g]) for g in group}) == 8
    return endos, bijective


def test_kd4_counts_agree_with_a_reckoning_without_hopfdiff(capsys):
    assert _d4_reckoning() == (36, 12)
    assert run(["classify-diffops", "--algebra", "kD4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"] == "complete"
    assert report["operator_count"] == 36
    assert sum(op["bijective"] for op in report["operators"]) == 12


def test_h8_collapse_operator_is_genuine(h8, h8_classification):
    """The full classification finds a non-bijective operator collapsing
    the simple subcoalgebra onto xy.  Frozen hand oracle for the pair
    (z, z): both sides equal 1 because (xy)t2(xy)S(t3) telescopes to
    g2 sigma(g3) w and the signed sum of those group elements is w, with
    w^2 = 1."""
    cols = [basis_vec(8, 0)] * 4 + [basis_vec(8, 3)] * 4
    res = check_diffop(h8, LinMap(h8, h8, cols))
    assert isinstance(res, DiffOp) and not res.bijective
    assert any(op.map.matrix.entries == Mat.from_cols(cols).entries
               for op in h8_classification.operators)


@pytest.mark.parametrize("name, nodes", [("plan:H8", 84), ("plan:H4", 3), ("plan:kC2xC2", 16)])
def test_search_node_count(name, nodes, monkeypatch):
    """Each search node is one _Engine._solve call.  The linear phase
    solves every linear consequence of the equation span, not only the
    equations linear as written, so fewer pins are branched on: plan:H8
    took 192 nodes when only the written-linear equations were solved."""
    calls = []
    solve = _Engine._solve

    def counted(self, *args):
        calls.append(None)
        return solve(self, *args)

    monkeypatch.setattr(_Engine, "_solve", counted)
    assert classify_diffops(catalog.build(name)).certificate == "complete"
    assert len(calls) == nodes
