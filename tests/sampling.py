"""Seeded samplers for random coalgebra endomorphisms of the catalog
algebras.

Coefficients are drawn from the small fixed pool {0, +-1, +-1/2, 2} so
exact arithmetic stays fast and runs are reproducible from the seed.
Every sampler yields genuine coalgebra homomorphisms (asserted), and the
known difference operators are injected first so both verdicts of the
equivalence suites are always exercised.
"""

from fractions import Fraction
import random

from hopfdiff import catalog
from hopfdiff.exactlin import Mat
from hopfdiff.hopf import LinMap, basis_vec, skew_primitives, zero_vec
from hopfdiff.maps import is_coalgebra_hom

COEFF_POOL = [Fraction(0), Fraction(1), Fraction(-1),
              Fraction(1, 2), Fraction(-1, 2), Fraction(2)]


def _grouplike_function_map(kg, images):
    cols = [basis_vec(kg.dim, g) for g in images]
    return LinMap(kg, kg, Mat.from_cols(cols))


def _group_algebra_maps(kg, rng, count):
    """On a group algebra every coalgebra endomorphism is the linear lift
    of a function on the group; difference operators are injected first."""
    from hopfdiff.diffops import all_diffops_on_group_algebra

    maps = [op.map for op in all_diffops_on_group_algebra(kg)]
    n = kg.dim
    while len(maps) < count:
        images = [rng.randrange(n) for _ in range(n)]
        maps.append(_grouplike_function_map(kg, images))
    return maps[:count]


def _combination(rng, basis, dim):
    out = zero_vec(dim)
    for vec in basis:
        c = rng.choice(COEFF_POOL)
        if c:
            out = [a + c * b for a, b in zip(out, vec)]
    return out


def _h4_maps(h4, rng, count):
    from hopfdiff.maps import unit_counit_map

    maps = [unit_counit_map(h4)]
    grouplike = [basis_vec(4, 0), basis_vec(4, 1)]
    while len(maps) < count:
        f1 = rng.randrange(2)
        fg = rng.randrange(2)
        # the images of x and gx live in the matching skew-primitive spaces
        space_x = skew_primitives(h4, grouplike[f1], grouplike[fg])
        space_gx = skew_primitives(h4, grouplike[fg], grouplike[f1])
        cols = [grouplike[f1], grouplike[fg],
                _combination(rng, space_x, 4), _combination(rng, space_gx, 4)]
        maps.append(LinMap(h4, h4, Mat.from_cols(cols)))
    return maps[:count]


def _h8_maps(h8, rng, count):
    """kG(H8) and the simple coefficient subcoalgebra are coalgebra direct
    summands, so any group-like function on one side combined with any
    coalgebra endomorphism of the other is a coalgebra map."""
    from hopfdiff.maps import unit_counit_map

    expected = catalog.build("expected:H8-bijective")
    known = [LinMap(h8, h8, Mat.from_cols(t["images"])) for t in expected]
    maps = [unit_counit_map(h8)] + known
    # coalgebra endomorphisms of the simple subcoalgebra: restrictions of
    # known operators, closed up by composition
    c4_blocks = [Mat.identity(4)]
    for table in expected:
        c4_blocks.append(Mat.from_cols([[col[4 + i] for i in range(4)]
                                        for col in table["images"][4:]]))
    while len(maps) < count:
        tau = [rng.randrange(4) for _ in range(4)]
        cols = [basis_vec(8, g) for g in tau]
        if rng.random() < 0.25:
            # collapse the simple subcoalgebra onto a group-like
            target = basis_vec(8, rng.randrange(4))
            cols.extend([list(target)] * 4)
        else:
            block = rng.choice(c4_blocks)
            if rng.random() < 0.5:
                block = block.mul(rng.choice(c4_blocks))
            for j in range(4):
                col = zero_vec(8)
                for i in range(4):
                    col[4 + i] = block[(i, j)]
                cols.append(col)
        maps.append(LinMap(h8, h8, Mat.from_cols(cols)))
    return maps[:count]


def coalgebra_maps_for(h, rng: random.Random, count: int):
    """Seeded coalgebra endomorphisms of a catalog algebra, verified."""
    if h.name in ("kC2", "kC4", "kS3", "kC2xC2", "kD4"):
        maps = _group_algebra_maps(h, rng, count)
    elif h.name == "H4":
        maps = _h4_maps(h, rng, count)
    elif h.name == "H8":
        maps = _h8_maps(h, rng, count)
    else:
        raise ValueError(f"no sampler for {h.name}")
    for m in maps:
        assert is_coalgebra_hom(m), f"sampler produced a non-coalgebra map on {h.name}"
    return maps
