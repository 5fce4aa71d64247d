"""Finite-dimensional Lie algebras by structure constants: crossed
homomorphisms, difference operators, derived actions, semidirect products
and the graph characterization, all checked exactly on basis tuples."""

from __future__ import annotations

from .exactlin import Mat, ONE, ZERO, Record, rank, rat
from .hopf import Vec, _sparse_ints, basis_vec, vec_add, vec_scale, vec_sub, zero_vec


class FinLie:
    """Lie algebra with bracket tensor b[i][j] = [e_i, e_j] as a vector."""

    def __init__(self, labels, bracket, name=""):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.name = name
        n = self.dim
        if len(bracket) != n or any(len(row) != n for row in bracket):
            raise ValueError("bracket tensor must be dim x dim")
        self.bracket_tensor = [[[rat(c) for c in cell] for cell in row] for row in bracket]
        for row in self.bracket_tensor:
            for cell in row:
                if len(cell) != n:
                    raise ValueError("bracket entries must be coordinate vectors")
        self._validate()

    @classmethod
    def from_pairs(cls, labels, pairs, name=""):
        """Build from {(i, j): coeff vector} for i < j; antisymmetry fills
        the rest."""
        n = len(labels)
        bracket = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
        for (i, j), vec in pairs.items():
            if not (0 <= i < j < n):
                raise ValueError("pairs must be given for i < j")
            vec = [rat(c) for c in vec]
            bracket[i][j] = vec
            bracket[j][i] = [-c for c in vec]
        return cls(labels, bracket, name)

    def _validate(self):
        n = self.dim
        for i in range(n):
            if any(self.bracket_tensor[i][i]):
                raise ValueError(f"[{self.labels[i]},{self.labels[i]}] must vanish")
            for j in range(n):
                lhs = self.bracket_tensor[i][j]
                rhs = [-c for c in self.bracket_tensor[j][i]]
                if lhs != rhs:
                    raise ValueError(f"antisymmetry fails at ({i},{j})")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = zero_vec(n)
                    acc = vec_add(acc, self.bracket_vec(self.bracket_tensor[i][j], basis_vec(n, k)))
                    acc = vec_add(acc, self.bracket_vec(self.bracket_tensor[j][k], basis_vec(n, i)))
                    acc = vec_add(acc, self.bracket_vec(self.bracket_tensor[k][i], basis_vec(n, j)))
                    if any(acc):
                        raise ValueError(f"Jacobi identity fails at ({i},{j},{k})")

    def bracket_vec(self, u: Vec, v: Vec) -> Vec:
        out = zero_vec(self.dim)
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                c = a * b
                for k, m in enumerate(self.bracket_tensor[i][j]):
                    if m:
                        out[k] += c * m
        return out

    def __repr__(self):
        return f"FinLie({self.name or self.labels}, dim={self.dim})"


class LieAction(Record):
    """phi : g -> Der(h), one matrix per basis element of g.

    Validated eagerly: each phi(x) must be a derivation of h and phi must
    be a Lie algebra homomorphism into Der(h).
    """

    _fields = ("acting", "target", "phi")

    def __init__(self, acting: FinLie, target: FinLie, phi: list):
        self.acting = acting
        self.target = target
        self.phi = phi  # list of Mat, one per basis element of the acting algebra
        g, h = acting, target
        if len(self.phi) != g.dim:
            raise ValueError("need one matrix per basis element of the acting algebra")
        for m in self.phi:
            if m.rows != h.dim or m.cols != h.dim:
                raise ValueError("action matrices must be dim(h) x dim(h)")
        for x in range(g.dim):
            for u in range(h.dim):
                for v in range(h.dim):
                    uu = basis_vec(h.dim, u)
                    vv = basis_vec(h.dim, v)
                    lhs = self.phi[x].apply(h.bracket_vec(uu, vv))
                    rhs = vec_add(h.bracket_vec(self.phi[x].apply(uu), vv),
                                  h.bracket_vec(uu, self.phi[x].apply(vv)))
                    if lhs != rhs:
                        raise ValueError(
                            f"phi({g.labels[x]}) is not a derivation "
                            f"(witness [{h.labels[u]},{h.labels[v]}])")
        for x in range(g.dim):
            for y in range(g.dim):
                lhs = self.apply(g.bracket_tensor[x][y], Mat.identity(h.dim))
                commut = self.phi[x].mul(self.phi[y]).entries
                commut = [a - b for a, b in zip(commut, self.phi[y].mul(self.phi[x]).entries)]
                if lhs.entries != commut:
                    raise ValueError(
                        f"phi is not a Lie homomorphism (witness [{g.labels[x]},{g.labels[y]}])")

    def apply(self, coeffs: Vec, seed: Mat) -> Mat:
        """The matrix phi(sum coeffs e_x), as seed-shaped zero plus terms."""
        out = [ZERO] * (seed.rows * seed.cols)
        for x, c in enumerate(coeffs):
            if not c:
                continue
            for idx, e in enumerate(self.phi[x].entries):
                if e:
                    out[idx] += c * e
        return Mat(seed.rows, seed.cols, out)

    def act(self, x_coeffs: Vec, u: Vec) -> Vec:
        out = zero_vec(self.target.dim)
        for x, c in enumerate(x_coeffs):
            if not c:
                continue
            out = vec_add(out, vec_scale(c, self.phi[x].apply(u)))
        return out


def trivial_lie_action(g: FinLie, h: FinLie) -> LieAction:
    return LieAction(g, h, [Mat.zero(h.dim, h.dim) for _ in range(g.dim)])


def adjoint_lie_action(g: FinLie) -> LieAction:
    mats = []
    for x in range(g.dim):
        cols = [g.bracket_tensor[x][j] for j in range(g.dim)]
        mats.append(Mat.from_cols(cols))
    return LieAction(g, g, mats)


def check_lie_crossed_hom(d: Mat, action: LieAction) -> bool:
    """d[x,y] = phi(x)(d y) - phi(y)(d x) + [d x, d y] on all basis pairs."""
    g, h = action.acting, action.target
    if d.rows != h.dim or d.cols != g.dim:
        raise ValueError("map shape must be dim(h) x dim(g)")
    for x in range(g.dim):
        for y in range(g.dim):
            lhs = d.apply(g.bracket_tensor[x][y])
            dx = d.col(x)
            dy = d.col(y)
            rhs = vec_sub(action.phi[x].apply(dy), action.phi[y].apply(dx))
            rhs = vec_add(rhs, h.bracket_vec(dx, dy))
            if lhs != rhs:
                return False
    return True


def check_lie_diffop(g: FinLie, d: Mat) -> bool:
    """d[x,y] = [d x, y] + [x, d y] + [d x, d y] on all basis pairs."""
    return check_lie_crossed_hom(d, adjoint_lie_action(g))


def diffop_from_endo(f: Mat) -> Mat:
    """f -> f - id."""
    n = f.rows
    return Mat(n, n, [f[(i, j)] - (ONE if i == j else ZERO)
                      for i in range(n) for j in range(n)])


def endo_from_diffop(d: Mat) -> Mat:
    """d -> d + id."""
    n = d.rows
    return Mat(n, n, [d[(i, j)] + (ONE if i == j else ZERO)
                      for i in range(n) for j in range(n)])


def is_lie_endo(g: FinLie, f: Mat) -> bool:
    for x in range(g.dim):
        for y in range(g.dim):
            lhs = f.apply(g.bracket_tensor[x][y])
            rhs = g.bracket_vec(f.col(x), f.col(y))
            if lhs != rhs:
                return False
    return True


def lie_endo_bijection(g: FinLie, candidates: list[Mat]):
    """Verify d <-> d + id on the supplied maps.

    For each candidate m, checks that m is a difference operator exactly
    when m + id is a Lie endomorphism, and that the two translations are
    mutually inverse.  Returns the list of (m, is_diffop) verdicts.
    """
    out = []
    for m in candidates:
        is_diff = check_lie_diffop(g, m)
        is_endo = is_lie_endo(g, endo_from_diffop(m))
        if is_diff != is_endo:
            raise AssertionError("difference/endomorphism bijection broke")
        if diffop_from_endo(endo_from_diffop(m)) != m:
            raise AssertionError("translation round trip failed")
        out.append((m, is_diff))
    return out


def derived_lie_action(d: Mat, action: LieAction) -> LieAction:
    """phi_d(x)(u) = phi(x)(u) + [d(x), u], verified as an action; -d is
    verified as a crossed homomorphism with respect to it."""
    if not check_lie_crossed_hom(d, action):
        raise ValueError("the map is not a crossed homomorphism for this action")
    g, h = action.acting, action.target
    mats = []
    for x in range(g.dim):
        dx = d.col(x)
        cols = [vec_add(action.phi[x].col(j), h.bracket_vec(dx, basis_vec(h.dim, j)))
                for j in range(h.dim)]
        mats.append(Mat.from_cols(cols))
    derived = LieAction(g, h, mats)
    minus_d = Mat(d.rows, d.cols, [-e for e in d.entries])
    if not check_lie_crossed_hom(minus_d, derived):
        raise AssertionError("-d failed to be a crossed homomorphism for the derived action")
    return derived


def semidirect(action: LieAction, name: str | None = None) -> FinLie:
    """h x| g with [(u,x),(v,y)] = ([u,v] + phi(x)v - phi(y)u, [x,y])."""
    g, h = action.acting, action.target
    nh, ng = h.dim, g.dim
    n = nh + ng
    labels = [f"h:{l}" for l in h.labels] + [f"g:{l}" for l in g.labels]

    def emb_h(v):
        return list(v) + zero_vec(ng)

    def emb_g(v):
        return zero_vec(nh) + list(v)

    bracket = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            u, x = (basis_vec(nh, i), zero_vec(ng)) if i < nh else (zero_vec(nh), basis_vec(ng, i - nh))
            v, y = (basis_vec(nh, j), zero_vec(ng)) if j < nh else (zero_vec(nh), basis_vec(ng, j - nh))
            hpart = h.bracket_vec(u, v)
            hpart = vec_add(hpart, action.act(x, v))
            hpart = vec_sub(hpart, action.act(y, u))
            gpart = g.bracket_vec(x, y)
            bracket[i][j] = vec_add(emb_h(hpart), emb_g(gpart))
    out = FinLie(labels, bracket, name or f"{h.name}x|{g.name}")
    # the factor embeddings must be Lie homomorphisms
    for i in range(nh):
        for j in range(nh):
            expect = emb_h(h.bracket_tensor[i][j])
            if out.bracket_tensor[i][j] != expect:
                raise AssertionError("h does not embed as a subalgebra")
    for i in range(ng):
        for j in range(ng):
            expect = emb_g(g.bracket_tensor[i][j])
            if out.bracket_tensor[nh + i][nh + j] != expect:
                raise AssertionError("g does not embed as a subalgebra")
    return out


class LieGraphResult(Record):
    _fields = ("basis", "closed", "agrees_with_direct_check")

    def __init__(self, basis: list, closed: bool, agrees_with_direct_check: bool):
        self.basis = basis
        self.closed = closed
        self.agrees_with_direct_check = agrees_with_direct_check


def lie_graph_check(d: Mat, action: LieAction) -> LieGraphResult:
    """Close the graph {(d x, x)} under the semidirect bracket and compare
    with the direct crossed-homomorphism identity.  The graph vectors are
    independent, so they are the basis, and a bracket lies in their span
    exactly when it leaves the rank of their integer rows unchanged."""
    g, h = action.acting, action.target
    semi = semidirect(action)
    n = h.dim + g.dim
    basis = [list(d.col(x)) + list(basis_vec(g.dim, x)) for x in range(g.dim)]
    rows = _sparse_ints(basis)[1]
    closed = all(rank(rows + _sparse_ints([semi.bracket_vec(u, v)])[1], n) == len(rows)
                 for u in basis for v in basis)
    direct = check_lie_crossed_hom(d, action)
    return LieGraphResult(basis, closed, closed == direct)
