import random
from fractions import Fraction

import pytest

from hopfdiff import catalog
from hopfdiff.actions import (
    ActionData,
    CrossedHom,
    TruncatedSmash,
    adjoint_action,
    check_crossed_hom,
    crossed_hom_properties,
    crossed_hom_report,
    derived_action,
    derived_module_structure,
    graph_hopf_iso,
    graph_of,
    smash_product,
    smash_vec,
    trivial_action,
    validate_action,
)
from hopfdiff.exactlin import Mat
from hopfdiff.hopf import (
    LinMap,
    basis_vec,
    grouplikes,
    validate_hopf,
    vec_add,
    vec_scale,
    zero_vec,
)
from hopfdiff.maps import (
    identity_map,
    unit_counit_map,
)
from reference_linalg import reference_row_space

F = Fraction


def test_trivial_action_is_module_bialgebra(h4, h8):
    for h in (h4, h8):
        rep = validate_action(trivial_action(h, h), require_bialgebra=True)
        assert rep.ok


def test_adjoint_action_module_algebra(h8):
    rep = validate_action(adjoint_action(h8))
    assert rep.ok
    # H8 is not cocommutative; the adjoint action cannot be bialgebra-compatible
    rep = validate_action(adjoint_action(h8), require_bialgebra=True)
    assert not rep.ok


def test_adjoint_action_on_cocommutative_is_bialgebra(ks3):
    rep = validate_action(adjoint_action(ks3), require_bialgebra=True)
    assert rep.ok


def test_inversion_action_is_module_bialgebra(inversion_action):
    rep = validate_action(inversion_action, require_bialgebra=True)
    assert rep.ok


def test_broken_action_reports_witness(kc2, kc4):
    tensor = [[basis_vec(4, x) for x in range(4)],
              [basis_vec(4, (x + 1) % 4) for x in range(4)]]  # s acts by rotation
    rep = validate_action(ActionData(kc2, kc4, tensor))
    assert not rep.ok
    assert rep.failures()


def test_crossed_hom_trivial_action_is_bialgebra_map(h8, ks3):
    for h in (h8, ks3):
        triv = trivial_action(h, h)
        assert check_crossed_hom(identity_map(h), triv)
        assert check_crossed_hom(unit_counit_map(h), triv)


def test_crossed_hom_adjoint_ueps(h4):
    adj = adjoint_action(h4)
    assert check_crossed_hom(unit_counit_map(h4), adj)


def test_failing_h4_candidate(h4):
    # D(g) = g, D(x) = (1-g) + x, D(gx) = (g-1) - gx: a coalgebra map that
    # the defining identity rejects
    cols = [basis_vec(4, 0), basis_vec(4, 1),
            [F(1), F(-1), F(1), F(0)], [F(-1), F(1), F(0), F(-1)]]
    pi = LinMap(h4, h4, cols)
    from hopfdiff.maps import is_coalgebra_hom

    assert is_coalgebra_hom(pi)
    assert not check_crossed_hom(pi, adjoint_action(h4))


def test_crossed_hom_precondition_errors(h4, kc2, kc4, inversion_action):
    adj = adjoint_action(h4)
    bad = LinMap(h4, h4, [basis_vec(4, 0), basis_vec(4, 2), zero_vec(4), zero_vec(4)])
    with pytest.raises(ValueError, match="coalgebra"):
        check_crossed_hom(bad, adj)
    broken = ActionData(kc2, kc4, [[basis_vec(4, x) for x in range(4)],
                                   [basis_vec(4, (x + 1) % 4) for x in range(4)]])
    with pytest.raises(ValueError, match="action"):
        check_crossed_hom(LinMap(kc2, kc4, [[0] * 4] * 2), broken)


def test_crossed_hom_properties_ueps(h4):
    adj = adjoint_action(h4)
    ch = CrossedHom.verify(unit_counit_map(h4), adj)
    assert crossed_hom_properties(ch).ok


def test_crossed_hom_properties_id_trivial(h8):
    triv = trivial_action(h8, h8)
    ch = CrossedHom.verify(identity_map(h8), triv)
    assert crossed_hom_properties(ch).ok


def test_crossed_hom_properties_nontrivial_kc2_kc4(kc2, kc4, inversion_action):
    pi = catalog.build("op:crossed:kC2:kC4")
    pi = LinMap(inversion_action.acting, inversion_action.target, pi.cols)
    ch = CrossedHom.verify(pi, inversion_action)
    assert crossed_hom_properties(ch).ok


def test_smash_trivial_action_is_tensor_product(kc2):
    smash = smash_product(trivial_action(kc2, kc2))
    assert validate_hopf(smash).ok
    assert len(grouplikes(smash).elements) == 4
    assert smash.dim == 4


def test_smash_inversion_action_gives_dihedral_grouplikes(inversion_action):
    smash = smash_product(inversion_action)
    assert validate_hopf(smash).ok
    gl = grouplikes(smash)
    assert gl.complete and len(gl.elements) == 8
    # identify the group of group-likes by its order profile: D4 has
    # exactly two elements of order four and five of order two
    elems = gl.elements
    orders = []
    unit = smash.unit_vec()
    for v in elems:
        n, x = 1, v
        while x != unit:
            x = smash.mult_vec(x, v)
            n += 1
        orders.append(n)
    assert sorted(orders) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_smash_requires_cocommutative_acting_algebra(h8):
    with pytest.raises(ValueError, match="cocommutative"):
        smash_product(trivial_action(h8, h8).__class__(h8, h8, trivial_action(h8, h8).tensor))


def test_graph_of_ueps_is_acting_factor(h8):
    adj = adjoint_action(h8)
    res = graph_of(unit_counit_map(h8), adj)
    assert res.closed
    assert len(res.basis) == 8


def reference_graph(pi: LinMap, smash) -> tuple:
    """(closed, witness, dimension) of the graph of pi by the Fraction
    Gauss-Jordan: the reduced echelon basis of the vectors pi(a1) # a2,
    and the first pair (i, j) of basis vectors whose product, by
    smash.mult_vec, leaves their span."""
    k = pi.domain
    vectors = []
    for a in range(k.dim):
        v = zero_vec(smash.dim)
        for a1, a2, c in k.comult_triples(a):
            v = vec_add(v, vec_scale(c, smash_vec(smash, pi.image_of_basis(a1),
                                                  basis_vec(k.dim, a2))))
        vectors.append(v)
    basis = reference_row_space(vectors)
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if len(reference_row_space(basis + [smash.mult_vec(u, v)])) > len(basis):
                return False, (i, j), len(basis)
    return True, None, len(basis)


def test_graph_verdict_matches_direct_check(h4):
    """The closure verdict, its witness and the graph dimension agree with
    reference_graph, and the verdict with the direct check."""
    adj = adjoint_action(h4)
    smash = TruncatedSmash(adj)
    rng = random.Random(3)
    pool = [F(0), F(1), F(-1), F(1, 2), F(2)]
    grouplike = [basis_vec(4, 0), basis_vec(4, 1)]
    from hopfdiff.hopf import skew_primitives

    seen = {True: 0, False: 0}
    for _ in range(30):
        f1, fg = rng.randrange(2), rng.randrange(2)
        sx = skew_primitives(h4, grouplike[f1], grouplike[fg])
        sgx = skew_primitives(h4, grouplike[fg], grouplike[f1])

        def combo(basis):
            out = zero_vec(4)
            for v in basis:
                c = rng.choice(pool)
                out = [a + c * b for a, b in zip(out, v)]
            return out

        pi = LinMap(h4, h4, [grouplike[f1], grouplike[fg], combo(sx), combo(sgx)])
        res = graph_of(pi, adj, smash=smash)
        assert (res.closed, res.witness, len(res.basis)) == reference_graph(pi, smash)
        direct = crossed_hom_report(adj, pi.columns()).ok
        assert res.closed == direct
        seen[direct] += 1
    assert seen[True] and seen[False]


def test_graph_hopf_iso_ueps(ks3):
    adj = adjoint_action(ks3)
    ch = CrossedHom.verify(unit_counit_map(ks3), adj)
    psi, eps_id, rep = graph_hopf_iso(ch)
    assert rep.ok
    # Psi(a) = 1 # a
    for a in range(ks3.dim):
        img = psi.image_of_basis(a)
        expected = zero_vec(ks3.dim * ks3.dim)
        expected[0 * ks3.dim + a] = F(1)
        assert img == expected


def test_graph_hopf_iso_id_on_kc2(kc2):
    adj = adjoint_action(kc2)
    ch = CrossedHom.verify(identity_map(kc2), adj)
    psi, eps_id, rep = graph_hopf_iso(ch)
    assert rep.ok
    img = psi.image_of_basis(1)  # Psi(g) = g # g
    expected = zero_vec(4)
    expected[1 * 2 + 1] = F(1)
    assert img == expected


def test_graph_hopf_iso_lifted_group_crossed_hom(kc2, kc4, inversion_action):
    pi_raw = catalog.build("op:crossed:kC2:kC4")
    pi = LinMap(inversion_action.acting, inversion_action.target, pi_raw.cols)
    ch = CrossedHom.verify(pi, inversion_action)
    _, _, rep = graph_hopf_iso(ch)
    assert rep.ok


def test_derived_module_structure_matches_crossed_hom(h4, h8):
    adj4 = adjoint_action(h4)
    assert derived_module_structure(unit_counit_map(h4), adj4).ok
    cols = [basis_vec(4, 0), basis_vec(4, 1),
            [F(1), F(-1), F(1), F(0)], [F(-1), F(1), F(0), F(-1)]]
    failing = LinMap(h4, h4, cols)
    rep = derived_module_structure(failing, adj4)
    assert not rep.ok and rep.failures()
    adj8 = adjoint_action(h8)
    assert derived_module_structure(unit_counit_map(h8), adj8).ok


def test_derived_action_of_ueps_reproduces_action(ks3):
    adj = adjoint_action(ks3)
    ch = CrossedHom.verify(unit_counit_map(ks3), adj)
    derived, derived_ch, rep = derived_action(ch)
    assert rep.ok
    assert derived.tensor == adj.tensor
    assert derived_ch.map == unit_counit_map(ks3)


def test_derived_action_of_id_trivial_is_adjoint(ks3):
    triv = trivial_action(ks3, ks3)
    ch = CrossedHom.verify(identity_map(ks3), triv)
    derived, derived_ch, rep = derived_action(ch)
    assert rep.ok
    assert derived.tensor == adjoint_action(ks3).tensor
    # the derived crossed homomorphism is S o id = the antipode
    assert derived_ch.map.matrix == Mat.from_cols([ks3.antipode_basis(j) for j in range(ks3.dim)])


def test_derived_action_of_bijective_diffop_on_ks3(ks3):
    adj = adjoint_action(ks3)
    inv = catalog.build("op:inv:kS3")
    pi = LinMap(ks3, ks3, inv.cols)
    ch = CrossedHom.verify(pi, adj)
    derived, derived_ch, rep = derived_action(ch)
    assert rep.ok
    # pi(a)(a x a^-1)pi(a)^-1 = x: the derived action on group-likes is trivial
    assert derived.tensor == trivial_action(ks3, ks3).tensor
    # S o inversion = identity, a plain Hopf endomorphism for the trivial action
    assert derived_ch.map.matrix == Mat.identity(6)


def test_smash_factor_embeddings_are_algebra_maps(inversion_action):
    """x -> x # 1 and a -> 1 # a, as smash_vec columns, are unital
    algebra maps into the smash product."""
    from hopfdiff.maps import algebra_map_failures

    def apply_cols(cols, u):
        """sum u_i cols[i] for a column table."""
        return [sum(c * col[r] for c, col in zip(u, cols) if c) for r in range(smash.dim)]

    smash = smash_product(inversion_action)
    h, k = inversion_action.target, inversion_action.acting
    for factor, cols in (
            (h, [smash_vec(smash, basis_vec(h.dim, x), k.unit_vec()) for x in range(h.dim)]),
            (k, [smash_vec(smash, h.unit_vec(), basis_vec(k.dim, a)) for a in range(k.dim)])):
        assert apply_cols(cols, factor.unit_vec()) == smash.unit_vec()
        assert list(algebra_map_failures(factor, smash, cols)) == []


def test_smash_product_is_the_validated_builder(inversion_action):
    """smash_product returns the smash builder itself, no FinDimHopf copy,
    with the whole pair index declared group-like when both factors are
    group algebras."""
    smash = smash_product(inversion_action)
    assert type(smash) is TruncatedSmash
    assert smash.name == "kC4#kC2"
    assert smash.coradical_group_basis == list(range(smash.dim))
    assert len(grouplikes(smash).elements) == smash.dim == 8
