"""Builders for the named algebras, groups, actions, search plans and
expected classification tables used by the tests and the CLI.

Every Hopf algebra built here passes the full axiom suite; construction
raises if it does not.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import Mat, ONE, ZERO, rat
from .hopf import FinDimHopf, LinMap, axiom_report, basis_vec, zero_vec
from .fingroup import FinGroup, group_algebra

HALF = Fraction(1, 2)


# -- groups -------------------------------------------------------------------

def _cyclic(n: int, labels) -> FinGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FinGroup(labels, table, name=f"C{n}")


def build_C2() -> FinGroup:
    return _cyclic(2, ["1", "s"])


def build_C4() -> FinGroup:
    return _cyclic(4, ["1", "r", "r2", "r3"])


def build_C2xC2() -> FinGroup:
    # index bits: 1 -> x, 2 -> y, 3 -> xy; the product is XOR
    labels = ["1", "x", "y", "xy"]
    table = [[i ^ j for j in range(4)] for i in range(4)]
    g = FinGroup(labels, table, name="C2xC2")
    return g


_S3_PERMS = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
_S3_LABELS = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]


def build_S3() -> FinGroup:
    idx = {p: i for i, p in enumerate(_S3_PERMS)}

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = [[idx[mul(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]
    return FinGroup(_S3_LABELS, table, name="S3")


def build_D4() -> FinGroup:
    # elements r^k s^m, 0 <= k < 4, m in {0,1}; s r s = r^-1
    labels = [f"r{k}" if m == 0 else f"r{k}s" for m in (0, 1) for k in range(4)]

    def enc(k, m):
        return k + 4 * m

    table = [[0] * 8 for _ in range(8)]
    for k1 in range(4):
        for m1 in range(2):
            for k2 in range(4):
                for m2 in range(2):
                    # (r^k1 s^m1)(r^k2 s^m2) = r^(k1 + (-1)^m1 k2) s^(m1+m2)
                    k = (k1 + (k2 if m1 == 0 else -k2)) % 4
                    table[enc(k1, m1)][enc(k2, m2)] = enc(k, (m1 + m2) % 2)
    return FinGroup(labels, table, name="D4")


# -- Hopf algebras ------------------------------------------------------------

def build_H4() -> FinDimHopf:
    """Sweedler's 4-dimensional Hopf algebra: g^2 = 1, x^2 = 0, gx = -xg."""
    basis = ["1", "g", "x", "gx"]
    n = 4
    z = zero_vec(n)

    def v(*coords):
        return [rat(c) for c in coords]

    mult = [[list(z) for _ in range(n)] for _ in range(n)]
    one, g, x, gx = (basis_vec(n, i) for i in range(4))
    mult[0] = [one, g, x, gx]
    mult[1] = [g, one, gx, x]
    mult[2] = [x, v(0, 0, 0, -1), list(z), list(z)]
    mult[3] = [gx, v(0, 0, -1, 0), list(z), list(z)]
    comult = [
        [(0, 0, ONE)],
        [(1, 1, ONE)],
        [(2, 0, ONE), (1, 2, ONE)],            # D(x)  = x (x) 1 + g (x) x
        [(3, 1, ONE), (0, 3, ONE)],            # D(gx) = gx (x) g + 1 (x) gx
    ]
    counit = [ONE, ONE, ZERO, ZERO]
    antipode = Mat.from_cols([one, g, v(0, 0, 0, -1), x])  # S(x) = -gx, S(gx) = x
    h = FinDimHopf("H4", basis, mult, one, comult, counit, antipode,
                   coradical_group_basis=[0, 1])
    _require_valid(h)
    return h


def _h8_sigma(g: int) -> int:
    """The swap x <-> y on C2xC2 indices, from zg = sigma(g)z."""
    return {0: 0, 1: 2, 2: 1, 3: 3}[g]


def build_H8() -> FinDimHopf:
    """The Kac-Paljutkin algebra: x^2 = y^2 = 1, z^2 = (1+x+y-xy)/2,
    xy = yx, zx = yz, zy = xz."""
    basis = ["1", "x", "y", "xy", "z", "xz", "yz", "xyz"]
    n = 8

    def enc(g, a):
        return g + 4 * a

    w = zero_vec(n)
    w[0] = HALF
    w[1] = HALF
    w[2] = HALF
    w[3] = -HALF  # z^2 = (1 + x + y - xy)/2

    mult = [[None] * n for _ in range(n)]
    for g in range(4):
        for a in range(2):
            for h in range(4):
                for b in range(2):
                    gh = g ^ (_h8_sigma(h) if a else h)
                    if a + b <= 1:
                        cell = basis_vec(n, enc(gh, a + b))
                    else:
                        cell = zero_vec(n)
                        for k in range(4):
                            cell[gh ^ k] = w[k]
                    mult[enc(g, a)][enc(h, b)] = cell

    comult = []
    for g in range(4):
        comult.append([(g, g, ONE)])
    for g in range(4):
        gz, gxz, gyz = enc(g, 1), enc(g ^ 1, 1), enc(g ^ 2, 1)
        comult.append([
            (gz, gz, HALF), (gz, gxz, HALF), (gyz, gz, HALF), (gyz, gxz, -HALF),
        ])
    # reorder triple lists to basis order of the first index
    comult = [sorted(t, key=lambda q: (q[0], q[1])) for t in comult]

    counit = [ONE] * n
    cols = [basis_vec(n, g) for g in range(4)]
    cols += [basis_vec(n, enc(_h8_sigma(g), 1)) for g in range(4)]  # S(gz) = sigma(g)z
    antipode = Mat.from_cols(cols)
    h = FinDimHopf("H8", basis, mult, basis_vec(n, 0), comult, counit, antipode,
                   coradical_group_basis=[0, 1, 2, 3])
    _require_valid(h)
    return h


def build_H8_swap_automorphism(h8: FinDimHopf | None = None) -> LinMap:
    """The Hopf automorphism of H8 with x <-> y and z -> (1+x+y-xy)z/2."""
    h8 = h8 or build_H8()
    n = 8
    q = [HALF, HALF, HALF, -HALF]  # over 1, x, y, xy
    cols = [basis_vec(n, 0), basis_vec(n, 2), basis_vec(n, 1), basis_vec(n, 3)]
    for g in range(4):
        col = zero_vec(n)
        # sigma(gz) = sigma(g) q z, multiplied out over the coset basis
        sg = _h8_sigma(g)
        for k in range(4):
            col[4 + (sg ^ k)] = q[k]
        cols.append(col)
    return LinMap(h8, h8, cols)


def _require_valid(h: FinDimHopf):
    report = axiom_report(h)
    if not report.ok:
        raise AssertionError(f"catalog algebra {h.name} failed axioms: {report.failures()}")


# -- actions ------------------------------------------------------------------

def build_inversion_action():
    """kC2 acting on kC4 with s . r^k = r^-k, as an ActionData tensor."""
    from .actions import ActionData

    kc2 = build_kC2()
    kc4 = build_kC4()
    tensor = []
    for a in range(2):
        row = []
        for x in range(4):
            row.append(basis_vec(4, x if a == 0 else (-x) % 4))
        tensor.append(row)
    return ActionData(kc2, kc4, tensor)


# -- group algebras -----------------------------------------------------------

def build_kC2() -> FinDimHopf:
    return group_algebra(build_C2(), "kC2")


def build_kC4() -> FinDimHopf:
    return group_algebra(build_C4(), "kC4")


def build_kC2xC2() -> FinDimHopf:
    return group_algebra(build_C2xC2(), "kC2xC2")


def build_kS3() -> FinDimHopf:
    return group_algebra(build_S3(), "kS3")


def build_kD4() -> FinDimHopf:
    return group_algebra(build_D4(), "kD4")


# -- search plans and expected tables ------------------------------------------

def _derived_plan(build_algebra):
    """A plan builder: solver.derive_plan of the algebra, importing solver when it runs."""
    def build_plan():
        from .solver import derive_plan

        return derive_plan(build_algebra())
    return build_plan


def expected_H4():
    """The lone difference operator u o eps, as basis-image vectors."""
    return [{
        "name": "u.eps",
        "images": [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    }]


_H8_Z_IMAGES = {
    "wa": [HALF, HALF, HALF, -HALF],    # (1+x+y-xy)/2
    "wb": [HALF, HALF, -HALF, HALF],    # (1+x-y+xy)/2
    "wc": [HALF, -HALF, HALF, HALF],    # (1-x+y+xy)/2
    "wd": [-HALF, HALF, HALF, HALF],    # (-1+x+y+xy)/2
}


def _h8_images(group_images, z_images):
    images = [basis_vec(8, g) for g in group_images]
    for name_or_idx in z_images:
        col = zero_vec(8)
        if isinstance(name_or_idx, int):
            col[4 + name_or_idx] = ONE
        else:
            for k, c in enumerate(_H8_Z_IMAGES[name_or_idx]):
                col[4 + k] = c
        images.append(col)
    return [[c for c in col] for col in images]


def expected_H8_bijective():
    """The eight published tables D1..D8 for H8, basis-image vectors.

    D1..D4 are the bijective difference operators on H8.  D5..D8 are
    coalgebra maps that fail the difference identity at the pair (z, z).
    """
    ident = [0, 1, 2, 3]
    swap = [0, 2, 1, 3]
    return [
        {"name": "D1", "images": _h8_images(ident, ["wa", "wc", "wb", "wd"])},
        {"name": "D2", "images": _h8_images(ident, ["wb", "wd", "wa", "wc"])},
        {"name": "D3", "images": _h8_images(ident, ["wc", "wa", "wd", "wb"])},
        {"name": "D4", "images": _h8_images(ident, ["wd", "wb", "wc", "wa"])},
        {"name": "D5", "images": _h8_images(swap, [0, 1, 2, 3])},
        {"name": "D6", "images": _h8_images(swap, [1, 0, 3, 2])},
        {"name": "D7", "images": _h8_images(swap, [2, 3, 0, 1])},
        {"name": "D8", "images": _h8_images(swap, [3, 2, 1, 0])},
    ]


# -- named operators ------------------------------------------------------------

def build_op_ueps_H4() -> LinMap:
    from .maps import unit_counit_map

    return unit_counit_map(build_H4())


def build_op_id_H4() -> LinMap:
    from .maps import identity_map

    return identity_map(build_H4())


def build_op_D1_H8() -> LinMap:
    h8 = build_H8()
    return LinMap(h8, h8, expected_H8_bijective()[0]["images"])


def build_op_inv_kS3() -> LinMap:
    """The lift of g -> g^-1, the one bijective difference operator."""
    ks3 = build_kS3()
    s3 = build_S3()
    return LinMap(ks3, ks3, [basis_vec(6, s3.inv(g)) for g in range(6)])


def build_op_id_kC4() -> LinMap:
    from .maps import identity_map

    return identity_map(build_kC4())


def build_op_id_kC2() -> LinMap:
    from .maps import identity_map

    return identity_map(build_kC2())


def build_op_ueps_kC4() -> LinMap:
    from .maps import unit_counit_map

    return unit_counit_map(build_kC4())


def build_op_crossed_kC2_kC4() -> LinMap:
    """pi : kC2 -> kC4 with pi(s) = r, a crossed homomorphism for the
    inversion action."""
    kc2 = build_kC2()
    kc4 = build_kC4()
    return LinMap(kc2, kc4, [basis_vec(4, 0), basis_vec(4, 1)])


# -- registry -----------------------------------------------------------------

_BUILDERS = {
    "C2": build_C2,
    "C4": build_C4,
    "C2xC2": build_C2xC2,
    "S3": build_S3,
    "D4": build_D4,
    "kC2": build_kC2,
    "kC4": build_kC4,
    "kC2xC2": build_kC2xC2,
    "kS3": build_kS3,
    "kD4": build_kD4,
    "H4": build_H4,
    "H8": build_H8,
    "action:inv:kC2:kC4": build_inversion_action,
    "aut:H8:swap": build_H8_swap_automorphism,
    "plan:H4": _derived_plan(build_H4),
    "plan:H8": _derived_plan(build_H8),
    "plan:kC2": _derived_plan(build_kC2),
    "plan:kC2xC2": _derived_plan(build_kC2xC2),
    "expected:H4": expected_H4,
    "expected:H8-bijective": expected_H8_bijective,
    "op:ueps:H4": build_op_ueps_H4,
    "op:id:H4": build_op_id_H4,
    "op:D1:H8": build_op_D1_H8,
    "op:inv:kS3": build_op_inv_kS3,
    "op:id:kC4": build_op_id_kC4,
    "op:id:kC2": build_op_id_kC2,
    "op:ueps:kC4": build_op_ueps_kC4,
    "op:crossed:kC2:kC4": build_op_crossed_kC2_kC4,
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def build(name: str):
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(names())}")
    return builder()
