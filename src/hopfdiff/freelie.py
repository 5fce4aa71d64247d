"""Degree-truncated free constructions: derivation actions on the
truncated carriers, difference operators on the tensor algebra, the
crossed-homomorphism extension to the enveloping level, and the instance
checks that relate them and their smash products.

The carriers themselves, words and Lyndon combinatorics,
:class:`TruncatedTensor`, :class:`LyndonBasis`, :func:`lyndon_dims` and
:class:`TruncatedEnveloping`, live in :mod:`hopfdiff.truncated`.  Truncation is honest: a product
whose total degree exceeds the budget raises OutOfBudgetError, and every
exhaustive check reports exactly which tuples it had to skip.  The
verdicts themselves are the shared ones of :mod:`hopfdiff.hopf`,
:mod:`hopfdiff.diffops` and :mod:`hopfdiff.actions`, which also builds
the smash products; their entries stay keyed by basis index, as on
finite carriers.  :mod:`hopfdiff.diffops` is imported by the two
functions that use it, so ``free-lie mm-check`` runs without it.

Derivation actions run on integer tables: :class:`DerivationAction` is an
integer engine of :mod:`hopfdiff.actions`, its Leibniz columns sparse
integers over one denominator built through the target's integer
products, so the module-axiom and crossed-homomorphism checks behind
``free-lie mm-check`` build no ``Fraction`` in their loops.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, lcm

from .actions import (ActionData, IntAction, SkipRuns, TruncatedSmash, _graph_column,
                      crossed_hom_report, module_axiom_report, smash_vec)
from .exactlin import ONE, _rat_vec, int_echelon, rank, rat
from .hopf import (
    CheckReport,
    IntColumns,
    OutOfBudgetError,
    Vec,
    _apply_int,
    _attempt,
    _canonical,
    _combine,
    _coproduct,
    _sparse_ints,
    _stored,
    _tensor_sum,
    basis_vec,
    int_structure,
    primitives,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .maps import (algebra_map_failures, antipode_map, coalgebra_map_report, convolve_columns,
                   int_columns)
from .truncated import (TruncatedEnveloping, TruncatedTensor, bracket_expansion, graded_dims,
                        lyndon_words, standard_factorization)


# ---------------------------------------------------------------------------
# module actions on truncated carriers

class DerivationAction(IntAction):
    """Action of the generators of one carrier on another by derivations,
    extended to monomials by composition (the enveloping-algebra module
    structure).  gen_images[x][y] is the image of target generator y
    under the derivation attached to acting generator x.

    The action runs on integers.  The derivation of acting generator x on
    target basis monomial i is tabulated on first use, by the Leibniz rule
    through the target's integer products, as sparse integer pairs over
    the one denominator leibniz_den, or as the OutOfBudgetError that a
    product raised; den = leibniz_den^m, m the most factors of an acting
    monomial.  A derivation of a vector is the sum of its coordinates
    times these columns, so it raises where a monomial-by-monomial
    rational expansion raises.  act_basis is the rational adapter over
    act_int.
    """

    def __init__(self, acting, target, gen_images):
        self.acting = acting
        self.target = target
        self.gen_images = gen_images
        self._columns: dict = {}
        # a Leibniz term with L factors carries md^L * unit_den *
        # gen_den^(L - 1) * image_den, md the target's mult_den; every
        # column is scaled to L = depth, the most factors of a target
        # monomial, and act_int to the most factors of an acting monomial
        width = len(gen_images[0])
        unit_den, (self._unit,) = _sparse_ints([target.unit_vec()])
        gen_den, self._gens = _sparse_ints([target.generator_vec(g) for g in range(width)])
        image_den, flat = _sparse_ints([v for row in gen_images for v in row])
        self._images = [flat[x * width:(x + 1) * width] for x in range(len(gen_images))]
        self._step = int_structure(target).mult_den * gen_den
        self._depth = max(len(target.monomial_factors(i)) for i in range(target.dim))
        self.leibniz_den = self._step ** self._depth * unit_den * image_den // gen_den
        self._acting_depth = max(len(acting.monomial_factors(a)) for a in range(acting.dim))
        self.den = self.leibniz_den ** self._acting_depth

    def _leibniz(self, x: int, i: int) -> list:
        """leibniz_den times the derivation of x on basis monomial i."""
        mul = int_structure(self.target).mul
        factors = self.target.monomial_factors(i)

        def term(pos: int):
            out = self._unit
            for q, g in enumerate(factors):
                out = mul(out, self._images[x][g] if q == pos else self._gens[g])
            return out

        scale = self._step ** (self._depth - len(factors))
        return _combine((scale, term(pos)) for pos in range(len(factors)))

    def _column(self, x: int, i: int):
        """The tabulated _leibniz(x, i), or the error it raised."""
        col = self._columns.get((x, i))
        if col is None:
            col = self._columns[(x, i)] = _attempt(self._leibniz, x, i)
        return col

    def _derive(self, x: int, u) -> list:
        """leibniz_den times the derivation of x on the sparse integer u."""
        return _combine((c, self._column(x, i)) for i, c in u)

    def act_int(self, a: int, u) -> list:
        """den times basis monomial a acting on the sparse integer u, by
        composing the derivations of its factors."""
        factors = self.acting.monomial_factors(a)
        for x in reversed(factors):
            u = self._derive(x, u)
        scale = self.leibniz_den ** (self._acting_depth - len(factors))
        return [(k, v * scale) for k, v in u]

    def basis_values(self) -> list:
        """act_int(a, e_x), or the error it raised, for every basis pair:
        the chain of derivations of a monomial is the chain of its tail
        followed by the derivation of its first factor, so each chain is
        one derivation of a tabulated one."""
        chains = {(): [((x, 1),) for x in range(self.target.dim)]}

        def chain(factors: tuple) -> list:
            row = chains.get(factors)
            if row is None:
                x = factors[0]
                row = chains[factors] = [
                    u if u.__class__ is OutOfBudgetError else _attempt(self._derive, x, u)
                    for u in chain(factors[1:])]
            return row

        values = []
        for a in range(self.acting.dim):
            factors = tuple(self.acting.monomial_factors(a))
            scale = self.leibniz_den ** (self._acting_depth - len(factors))
            values.append([u if u.__class__ is OutOfBudgetError else [(k, v * scale) for k, v in u]
                           for u in chain(factors)])
        return values

    def act_basis(self, a: int, u: Vec) -> Vec:
        """Module action of an acting basis monomial on the vector u."""
        return self.act_rational(a, u)


def adjoint_derivation_action(carrier) -> DerivationAction:
    """The adjoint action of a truncated carrier on itself: generators act
    by commutator brackets."""
    k = carrier.generators
    images = []
    for x in range(k):
        xv = carrier.generator_vec(x)
        row = []
        for y in range(k):
            yv = carrier.generator_vec(y)
            row.append(vec_sub(carrier.mult_vec(xv, yv), carrier.mult_vec(yv, xv)))
        images.append(row)
    return DerivationAction(carrier, carrier, images)


def trivial_derivation_action(acting, target) -> DerivationAction:
    images = [[zero_vec(target.dim) for _ in range(target.generators)]
              for _ in range(acting.generators)]
    return DerivationAction(acting, target, images)


# ---------------------------------------------------------------------------
# difference operators on the truncated tensor algebra

def _multiplicative_columns(src, dst, gen_images: list[Vec]) -> list:
    """The images of src's basis monomials under the algebra map to dst
    with these generator images; a column whose product leaves dst's
    budget is None."""
    cols = []
    for i in range(src.dim):
        try:
            acc = dst.unit_vec()
            for g in src.monomial_factors(i):
                acc = dst.mult_vec(acc, gen_images[g])
            cols.append(acc)
        except OutOfBudgetError:
            cols.append(None)
    return cols


def diffop_from_hom(tv: TruncatedTensor, phi: list[Vec]) -> CheckReport:
    """Build D = F * S from the algebra endomorphism F extending
    v -> v + phi(v), then verify the difference identity in budget.

    phi maps each letter to an element of the free Lie algebra inside the
    carrier (a primitive vector); budget overruns are reported, never
    skipped silently.  A word whose F image leaves the budget is skipped
    as ("F", i), ahead of check_diffop's entries, where each D column it
    makes unknown is ("column", k).  details["F"] is F's column table, None
    for an unknown column, and details["D"] D's IntColumns.

    Each letter image v is tested for D(v) = v (x) 1 + 1 (x) v on integer
    tables, as is_grouplike tests D(c) = c (x) c.  For v = u / den and
    1 = one / unit_den, _coproduct(t, u) is comult_den * den * D(v), and
    u (x) one + one (x) u is den * unit_den * (v (x) 1 + 1 (x) v).
    """
    from .diffops import check_diffop

    t = int_structure(tv)
    unit_den, (one,) = _sparse_ints([tv.unit_vec()])
    for u in _sparse_ints(phi)[1]:
        if {key: m * unit_den for key, m in _coproduct(t, u).items()} != \
                _tensor_sum(((t.comult_den, u, one), (t.comult_den, one, u))):
            raise ValueError("letter images must be primitive (free Lie elements)")
    letter_images = [vec_add(tv.generator_vec(x), phi[x]) for x in range(tv.generators)]
    f_cols = _multiplicative_columns(tv, tv, letter_images)
    # D(w) = sum F(w1) S(w2)
    d_cols = convolve_columns(tv, tv, f_cols, antipode_map(tv).cols)
    report = check_diffop(tv, d_cols)
    report.skipped = [("F", i) for i, c in enumerate(f_cols) if c is None] + report.skipped
    report.details["F"] = f_cols
    report.details["D"] = d_cols
    return report


# ---------------------------------------------------------------------------
# crossed-homomorphism extension to the enveloping level
#
# Every function here takes the one DerivationAction of K = action.acting
# on H = action.target: K's monomials, products and coproducts are read
# from the first, and the values, units and products from the second.
# The extension, the free values and the degree systems run on integers:
# an H-vector is a sparse integer vector (see hopfdiff.hopf) over a
# denominator kept beside it, products come from the IntStructure tables
# and the action from act_int, and Fraction values are built only for
# what the public functions return.

def _rescaled(u, s: int) -> tuple:
    return tuple([(k, m * s) for k, m in u])


def _lie_ints(k: TruncatedTensor, word) -> list:
    """The bracketed Lyndon word as sparse integer pairs over K's basis."""
    return sorted((k.index[w], c) for w, c in bracket_expansion(word).items())


def _free_values_int(action: DerivationAction, gen_images: list[Vec]) -> list:
    """(word, value) for the bracketed Lyndon basis of K, each value the
    pair (sparse integers, denominator) in lowest terms, or None where it
    leaves the budget."""
    k, h = action.acting, action.target
    t = int_structure(h)
    act_int, aden = action.act_int, action.den
    pden, pis = _sparse_ints(gen_images)
    values: dict = {}

    def value(word):
        if word in values:
            return values[word]
        if len(word) == 1:
            out = (pis[word[0]], pden)
        else:
            u, v = standard_factorization(word)
            du, dv = value(u), value(v)
            out = None
            if du is not None and dv is not None:
                (uu, udn), (vv, vdn) = du, dv
                # u . dv carries aden * vdn, v . du aden * udn and the
                # bracket H's mult_den * udn * vdn; all over their product
                try:
                    acc = _combine(((t.mult_den * udn, _bracket_terms(act_int, k, u, vv)),
                                    (-t.mult_den * vdn, _bracket_terms(act_int, k, v, uu)),
                                    (aden, t.mul(uu, vv)), (-aden, t.mul(vv, uu))))
                    (col,), den = _canonical([acc], aden * t.mult_den * udn * vdn)
                    out = (col, den)
                except OutOfBudgetError:
                    pass
        values[word] = out
        return out

    by_length = lyndon_words(k.generators, k.budget)
    return [(w, value(w)) for n in range(1, k.budget + 1) for w in by_length[n]]


def _bracket_terms(act_int, k: TruncatedTensor, word, u) -> list:
    """den times the bracketed word acting on the sparse integer u."""
    return _combine((c, act_int(a, u)) for a, c in _lie_ints(k, word))


def free_crossed_hom_values(action: DerivationAction, gen_images: list[Vec]):
    """Values in H of the free crossed homomorphism on the bracketed
    Lyndon basis of K, a truncated tensor algebra, from its generator
    images.

    On a free Lie algebra any generator assignment extends uniquely to a
    crossed homomorphism; the value on [u, v] is
    phi(u)(d v) - phi(v)(d u) + [d u, d v], computed recursively down the
    standard factorization.  Entries that leave the budget come back as
    None.
    """
    n = action.target.dim
    return [(w, None if v is None else _rat_vec(v[0], v[1], n))
            for w, v in _free_values_int(action, gen_images)]


def extend_crossed_hom_trunc(action: DerivationAction,
                             pi_gen_images: list[Vec]) -> CheckReport:
    """The enveloping-level extension of a Lie crossed homomorphism:
    pi_bar(x1...xn) = (pi(x1) + phi(x1)) ... (pi(xn) + phi(xn))(1) on the
    monomial basis, verified as a coalgebra map satisfying the
    Hopf crossed-homomorphism identity on all in-budget pairs.
    details["pibar"] is its IntColumns (_pibar_int).
    """
    k, h = action.acting, action.target
    cols, den = icols = _pibar_int(action, pi_gen_images)
    report = crossed_hom_report(action, icols)
    report.details["pibar"] = icols
    # restriction to primitive degree one must match the generator images
    pden, pis = _sparse_ints(pi_gen_images)
    gden, gens = _sparse_ints([k.generator_vec(g) for g in range(k.generators)])
    for g in range(k.generators):
        got = _apply_int(cols, gens[g])
        if [(p, m * pden) for p, m in got] != [(p, m * den * gden) for p, m in pis[g]]:
            report.ok = False
            report.failures.append(("degree-one restriction", g))
    return report


def _pibar_int(action: DerivationAction, pi_gen_images: list[Vec]) -> IntColumns:
    """The product-formula columns as sparse integers over one
    denominator; a column whose products leave the budget is stored as
    the error int_columns stores for an unknown column."""
    k, h = action.acting, action.target
    t = int_structure(h)
    unit_den, (unit,) = _sparse_ints([h.unit_vec()])
    pden, pis = _sparse_ints(pi_gen_images)
    # pi(g) acc carries H's mult_den * pden and g . acc leibniz_den, each
    # times the denominator of acc: a column with L factors carries
    # unit_den * step^L, and is scaled to L = depth
    step = lcm(t.mult_den * pden, action.leibniz_den)
    left, right = step // (t.mult_den * pden), step // action.leibniz_den
    depth = max(len(k.monomial_factors(i)) for i in range(k.dim))
    cols = []
    for i in range(k.dim):
        factors = k.monomial_factors(i)
        acc = unit
        try:
            for g in reversed(factors):
                acc = _combine(((left, t.mul(pis[g], acc)), (right, action._derive(g, acc))))
        except OutOfBudgetError:
            cols.append(OutOfBudgetError("image column unknown"))
            continue
        cols.append(_rescaled(acc, step ** (depth - len(factors))))
    return IntColumns(cols, unit_den * step ** depth)


def mm_instance_check(action: DerivationAction, pi_gen_images: list[Vec],
                      candidate_cols=None) -> CheckReport:
    """Instance check of the enveloping-extension compatibility, for an
    action whose acting carrier is a truncated tensor algebra:

    (i) the product-formula extension restricts on primitives to the free
    crossed homomorphism it came from; (ii) it is the unique in-budget
    coalgebra map satisfying the crossed-homomorphism identity degree by
    degree; (iii) the extended action is a module-bialgebra action on all
    in-budget tuples.  A candidate column table may be supplied to test
    against (the perturbation hook); it defaults to the computed one.
    """
    k = action.acting
    report = extend_crossed_hom_trunc(action, pi_gen_images)
    # the columns under test, as integers once for every stage
    icols, den = cols = int_columns(
        report.details["pibar"] if candidate_cols is None else candidate_cols)
    if candidate_cols is not None:
        sub = crossed_hom_report(action, cols)
        report.ok = report.ok and sub.ok
        report.failures.extend(sub.failures)

    # (i) restriction to the Lie subspace
    for w, expected in _free_values_int(action, pi_gen_images):
        label = "".join(map(str, w))
        try:
            if expected is None:
                raise OutOfBudgetError("value unknown")
            got = _apply_int(icols, _lie_ints(k, w))
        except OutOfBudgetError:
            report.skipped.append(("lie-restriction", label))
            continue
        values, vden = expected
        if [(p, m * vden) for p, m in got] != [(p, m * den) for p, m in values]:
            report.ok = False
            report.failures.append(("lie-restriction", label))

    # (ii) degree-by-degree uniqueness of the in-budget extension
    uniq = _uniqueness_by_degree(action, pi_gen_images, cols)
    report.details["uniqueness"] = uniq
    if uniq["unique"] is None:
        report.skipped.append(("uniqueness", uniq["witness"]))
    elif not uniq["unique"] or not uniq["matches"]:
        report.ok = False
        report.failures.append(("uniqueness", uniq.get("witness")))

    # (iii) the extended action is a module bialgebra action in budget
    club = extended_action_bialgebra_check(action)
    report.details["action"] = club
    if not club.ok:
        report.ok = False
        report.failures.extend(club.failures)
    # the module report's runs follow this report's own skips, unbuilt
    report.skipped = SkipRuns(club.skipped.runs, report.skipped)
    return report


def _uniqueness_by_degree(action: DerivationAction, pi_gen_images, cols) -> dict:
    """Solve for the extension degree by degree: at each degree the
    coalgebra and crossed-homomorphism constraints are affine in the
    unknown images given the lower degrees.  The solution must be unique
    and equal to the supplied columns.

    At degree d, with m basis words of K of that degree, the unknown
    images are the rows of an m x n_val matrix X, n_val = dim H, and an
    equation sum_i coeff_i value(i) = const is one row [coefficients |
    const] of A X = B.  One reduction of [A | B] decides the degree: a
    pivot in the B block means there is no solution, rank A < m leaves
    n_val (m - rank A) free coordinates, and otherwise the reduced rows
    hold X.

    The systems are integer: the known images are sparse integers over
    one denominator, each equation is built from K's and H's integer
    structure tables and the action's act_int and scaled to integers,
    and each degree is reduced by exactlin.int_echelon.

    An equation whose right side leaves the budget is skipped, not
    dropped: a degree whose system is short of rank after such a skip is
    undecided, and the result is unique None with witness "degree d".
    """
    k, h = action.acting, action.target
    n_dom, n_val = k.dim, h.dim
    tk, th = int_structure(k), int_structure(h)
    act_int = action.act_int
    unit_den, (unit,) = _sparse_ints([h.unit_vec()])
    pden, pis = _sparse_ints(pi_gen_images)
    # known[i] is den times the image of basis i, None while unknown
    den = lcm(unit_den, pden)
    known: list = [None] * n_dom
    known[0] = _rescaled(unit, den // unit_den)
    for g in range(k.generators):
        known[k.index[(g,)]] = _rescaled(pis[g], den // pden)
    by_degree: dict = {}
    for i in range(n_dom):
        by_degree.setdefault(k.degree(i), []).append(i)
    acted: dict = {}  # (a2, j) -> act_int(a2, known[j]), or the error it raised

    def term(a1: int, a2: int, j: int):
        """value(a1) (a2 . value(j)), for a known value(j)."""
        if known[a1] is None:
            raise OutOfBudgetError("lower value unknown")
        value = acted.get((a2, j))
        if value is None:
            value = acted[(a2, j)] = _attempt(act_int, a2, known[j])
        return th.mul(known[a1], value)

    for d in range(2, k.budget + 1):
        idxs = by_degree.get(d, [])
        pos = {i: p for p, i in enumerate(idxs)}
        m = len(idxs)
        # sum_x prod_x value(x) = sum c value(a1) (a2 . value(j)): the left
        # side carries K's mult_den, the right side K's comult_den, den^2,
        # the action's den and H's mult_den
        lscale = tk.comult_den * den * den * action.den * th.mult_den
        rows = []
        skipped = False
        # crossed-homomorphism equations for products landing in degree d
        for di in range(1, d):
            for i in by_degree.get(di, ()):
                if known[i] is None:
                    continue
                for j in by_degree.get(d - di, ()):
                    if known[j] is None:
                        continue
                    try:
                        prod = _stored(tk.mult[i][j])
                        rhs = _combine((c, term(a1, a2, j)) for a1, a2, c in tk.comult[i])
                    except OutOfBudgetError:
                        skipped = True
                        continue
                    row = {pos[x]: v * lscale for x, v in prod if x in pos}
                    if row:
                        row.update((m + p, v * tk.mult_den) for p, v in rhs)
                        rows.append(row)
        reduced, pivots = int_echelon(rows, m + n_val)
        # the last reduced row has the largest pivot
        consistent = not pivots or pivots[-1] < m
        if consistent and len(reduced) < m and skipped:
            return {"unique": None, "matches": None, "witness": f"degree {d}"}
        if not rows:
            return {"unique": False, "matches": False, "witness": f"degree {d} unconstrained"}
        if not consistent or len(reduced) < m:
            free = n_val * (m - len(reduced)) if consistent else 0
            return {"unique": False, "matches": False,
                    "witness": f"degree {d} solution space dim {free}"}
        # reduced row p is lead (e_p | X_p); X_p goes over den in lowest terms
        solved = []
        for p, row in enumerate(reduced):
            lead = row[p]
            values = sorted((c - m, v) for c, v in row.items() if c >= m)
            g = gcd(lead, *(v for _, v in values))
            g = -g if lead < 0 else g
            solved.append((lead // g, [(q, v // g) for q, v in values]))
        new_den = lcm(den, *(lead for lead, _ in solved))
        if new_den != den:
            known = [None if u is None else _rescaled(u, new_den // den) for u in known]
            acted.clear()
            den = new_den
        for i, (lead, values) in zip(idxs, solved):
            known[i] = _rescaled(values, den // lead)
    icols, cden = int_columns(cols)
    matches = True
    witness = None
    for i in range(n_dom):
        col = icols[i]
        if col.__class__ is OutOfBudgetError or known[i] is None:
            continue
        if [(p, v * den) for p, v in col] != [(p, v * cden) for p, v in known[i]]:
            matches = False
            witness = k.label(i)
            break
    return {"unique": True, "matches": matches, "witness": witness}


def extended_action_bialgebra_check(action: DerivationAction) -> CheckReport:
    """Module-bialgebra axioms of the derivation-extended action on all
    in-budget basis tuples: actions.module_axiom_report of the action."""
    return module_axiom_report(action)


# ---------------------------------------------------------------------------
# truncated smash products

def _enveloping_smash(lie_action, budget: int) -> TruncatedSmash:
    """U(h) # U(g) for a Lie action of g on h: its action is the
    DerivationAction of U(g) on U(h) that extends the Lie action."""
    g, h = lie_action.acting, lie_action.target
    uh = TruncatedEnveloping(h, budget)
    images = [[_embed_degree_one(uh, lie_action.phi[x].col(j)) for j in range(h.dim)]
              for x in range(g.dim)]
    action = DerivationAction(TruncatedEnveloping(g, budget), uh, images)
    return TruncatedSmash(action, budget, name=f"U({h.name})#U({g.name})")


def smash_vs_semidirect_trunc(lie_action, budget: int) -> dict:
    """Instance check that U(h x| g) and U(h) # U(g) agree up to the
    budget: the map (u, x) -> u#1 + 1#x extends to an exact graded
    isomorphism, multiplicative on every in-budget pair."""
    from .lie import semidirect

    sd = semidirect(lie_action)
    u_sd = TruncatedEnveloping(sd, budget)
    smash = _enveloping_smash(lie_action, budget)
    uh, ug = smash.action.target, smash.action.acting

    # the map on semidirect generators, extended multiplicatively
    gen_cols = []
    for i in range(sd.dim):
        if i < uh.generators:
            gen_cols.append(smash_vec(smash, uh.generator_vec(i), ug.unit_vec()))
        else:
            gen_cols.append(smash_vec(smash, uh.unit_vec(), ug.generator_vec(i - uh.generators)))
    cols = _multiplicative_columns(u_sd, smash, gen_cols)
    report: dict = {"skipped": [u_sd.label(i) for i, c in enumerate(cols) if c is None]}
    dims = graded_dims(u_sd)
    report["graded_dims_match"] = dims == graded_dims(smash)
    report["dims"] = dims
    known = [c for c in cols if c is not None]
    report["bijective"] = (len(known) == smash.dim
                           and rank(int_columns(known).cols, smash.dim) == smash.dim)
    # multiplicativity on in-budget pairs
    kinds = [kind for _, _, kind in algebra_map_failures(u_sd, smash, cols)]
    report["multiplicative_pairs_checked"] = u_sd.dim ** 2 - kinds.count("skipped")
    report["multiplicative"] = "algebra" not in kinds
    # coalgebra compatibility on basis columns
    report["coalgebra_compatible"] = coalgebra_map_report(u_sd, smash, cols).ok
    report["ok"] = (report["graded_dims_match"] and report["bijective"]
                    and report["multiplicative"] and report["coalgebra_compatible"])
    report["_smash"] = smash
    report["_u_semidirect"] = u_sd
    report["_columns"] = cols
    return report


def _embed_degree_one(u_env: TruncatedEnveloping, lie_vec) -> Vec:
    out = zero_vec(u_env.dim)
    for g, c in enumerate(lie_vec):
        if c:
            out = vec_add(out, vec_scale(rat(c), u_env.generator_vec(g)))
    return out


def graph_dims_check(lie_action, pi_gen_images_lie, budget: int) -> dict:
    """Instance check that the graph of the extended crossed homomorphism
    has the graded dimensions of the enveloping algebra of the Lie-level
    graph."""
    smash = _enveloping_smash(lie_action, budget)
    action = smash.action
    uh, ug = action.target, action.acting
    g = lie_action.acting
    # Lie-level graph dimension equals dim g; enveloping dims are the
    # monomial counts in dim(g) variables
    expected = [0] * (budget + 1)
    for total in range(budget + 1):
        expected[total] = comb(total + g.dim - 1, g.dim - 1)
    cum_expected = list(itertools.accumulate(expected))
    pi_images = [_embed_degree_one(uh, v) for v in pi_gen_images_lie]
    cols = _pibar_int(action, pi_images).cols
    t = int_structure(ug)
    vectors_by_degree: dict = {}
    for i in range(ug.dim):
        try:
            vec = _graph_column(t, cols, i, smash)
        except OutOfBudgetError:
            continue
        vectors_by_degree.setdefault(ug.degree(i), []).append(vec)
    dims = []
    pool: list = []
    for d in range(budget + 1):
        pool.extend(vectors_by_degree.get(d, []))
        dims.append(rank(pool, smash.dim))
    return {
        "graph_filtration_dims": dims,
        "expected_dims": cum_expected,
        "ok": dims == cum_expected,
    }


# ---------------------------------------------------------------------------
# the truncated mixed structure-theorem instance

def sign_action_on_enveloping(u_env: TruncatedEnveloping, kc2) -> ActionData:
    """kC2 acting on U of a one-dimensional Lie algebra by the sign of the
    degree: the generator of C2 acts as the algebra automorphism e -> -e."""
    n = u_env.dim
    return ActionData(kc2, u_env, [
        [basis_vec(n, x) for x in range(n)],
        [vec_scale(-ONE if u_env.degree(x) % 2 else ONE, basis_vec(n, x)) for x in range(n)]])


def ckmm_truncated_instance(budget: int) -> dict:
    """The mixed pointed-cocommutative instance: k[C2] acting by sign on
    the truncated enveloping algebra of the one-dimensional Lie algebra,
    with the compatible difference pair (id on U, u o eps on kC2).

    Verifies the compatibility identity, builds the smash extension,
    checks it is a difference operator on every in-budget pair, restricts
    it back to the group of group-likes and the primitive space, and
    reproduces the operator from those restrictions.
    """
    from .catalog import build_kC2
    from .diffops import (check_diffop, compatibility_failures, smash_extension_columns,
                          smash_restrictions)
    from .lie import FinLie

    g1 = FinLie.from_pairs(["e"], {}, "abelian1")
    u_env = TruncatedEnveloping(g1, budget)
    kc2 = build_kC2()
    action = sign_action_on_enveloping(u_env, kc2)
    smash = TruncatedSmash(action, budget, name="U(e)#kC2")
    n_u, n_k = u_env.dim, kc2.dim

    d_h = [basis_vec(n_u, i) for i in range(n_u)]          # id on U
    d_k = [basis_vec(n_k, 0), basis_vec(n_k, 0)]           # u o eps on kC2
    d_k_bad = [basis_vec(n_k, 0), basis_vec(n_k, 1)]       # id on kC2

    report: dict = {"budget": budget}

    # compatibility: D_H(a1 . x1)(a2 . x2) = D_K(a1) a2 . D_H(x1) x2
    fails = compatibility_failures(action, d_h, d_k)
    report["compatible"] = not fails
    report["compatibility_witness"] = fails[0] if fails else None

    # the incompatible pair (id on U, id on kC2) must be rejected
    bad = compatibility_failures(action, d_h, d_k_bad)
    report["incompatible_pair_rejected"] = bool(bad)
    report["incompatible_witness"] = bad[0] if bad else None

    # the smash extension D(x#a) = D_H(x1) x2 (D_K(a1) . S(x3)) # D_K(a2)
    cols = smash_extension_columns(action, d_h, d_k, smash)
    diff_rep = check_diffop(smash, cols)
    report["extension_is_diffop"] = diff_rep.ok
    report["extension_pairs_checked"] = diff_rep.checked
    report["extension_pairs_skipped"] = len(diff_rep.skipped)

    report["restricts_to_dh"], report["restricts_to_dk"] = smash_restrictions(
        smash, cols, d_h, d_k)

    # group-likes and primitives of the smash
    prim = primitives(smash)
    e = smash.index[(u_env.index[(1,)], 0)]
    e_vec = basis_vec(smash.dim, e)
    report["primitive_dim"] = len(prim)
    # one primitive spans the same line as e exactly when e is in its span
    report["primitive_is_e"] = (len(prim) == 1 and
                                rank(_sparse_ints(prim)[1] + [((e, 1),)], smash.dim) == 1)
    # D on the primitive: identity (a difference operator on the abelian
    # one-dimensional Lie algebra); D on group-likes: the trivial one
    for key, pair, v in (("restriction_on_primitive_is_id", (u_env.index[(1,)], 0), e_vec),
                         ("restriction_on_grouplike_is_trivial", (0, 1), smash.unit_vec())):
        col = cols.cols[smash.index[pair]]
        report[key] = col.__class__ is not OutOfBudgetError and \
            _canonical([col], cols.den) == _canonical(*int_columns([v]))
    report["ok"] = all(report[k] for k in (
        "compatible", "incompatible_pair_rejected", "extension_is_diffop",
        "restricts_to_dh", "restricts_to_dk", "primitive_is_e",
        "restriction_on_primitive_is_id", "restriction_on_grouplike_is_trivial"))
    return report
