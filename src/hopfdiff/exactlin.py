"""Exact rational linear algebra: rational scalars, dense matrices, and
one elimination on sparse integer rows.

Scalars are ``fractions.Fraction`` values (always in lowest terms,
positive denominator), and :class:`Mat` is a small dense rational matrix.
There is one elimination, :func:`int_echelon`, fraction-free on sparse
integer rows, and one span test, :func:`rank`, read off it.
:func:`int_kernel` reads a null-space basis off the same reduced echelon
form and builds ``Fraction`` values only for what it returns.  Reduced
echelon forms are unique, so equal inputs always produce identical
outputs.  Callers pass integer rows: a rational vector is scaled to
integers where it is built (:func:`hopfdiff.hopf._sparse_ints`), never
here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Record:
    """Base of the package's small record classes: value equality and a
    repr over the attributes named in ``_fields``, and no hash.  It stands
    in for ``dataclasses``, whose import (with ``inspect``) would cost
    every process that loads these layers a few milliseconds."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A Record that hashes by value and rejects assignment; __init__
    sets its fields through :meth:`_set`."""

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())


def rat(value, den=None) -> Rat:
    """Coerce ints, strings like "p/q", or Fractions to an exact rational;
    a bool is refused, so that a JSON true or false is not read as 1 or 0."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build a rational from {value!r}")


def rat_str(value: Rat) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Mat:
    """Dense row-major rational matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [rat(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    @classmethod
    def from_cols(cls, cols) -> "Mat":
        cols = [list(c) for c in cols]
        return cls.from_rows(list(zip(*cols))) if cols else cls(0, 0, [])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [ZERO] * (rows * cols))

    def __getitem__(self, rc) -> Rat:
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> list[Rat]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def col(self, c: int) -> list[Rat]:
        return self.entries[c :: self.cols]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols})"

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = [ZERO] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if not a:
                    continue
                obase = k * other.cols
                row = i * other.cols
                for j in range(other.cols):
                    b = other.entries[obase + j]
                    if b:
                        out[row + j] += a * b
        return Mat(self.rows, other.cols, out)

    def apply(self, vec: list[Rat]) -> list[Rat]:
        """Matrix-vector product; vec has one entry per column."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [ZERO] * self.rows
        for j, x in enumerate(vec):
            if not x:
                continue
            for i in range(self.rows):
                e = self.entries[i * self.cols + j]
                if e:
                    out[i] += e * x
        return out


def _eliminate(row: dict[int, int], prow: dict[int, int], a: int, b: int) -> dict[int, int]:
    """The primitive multiple of a*row - b*prow, where a = prow[c] and
    b = row[c] for the column c being cleared."""
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    out = dict(row) if a == 1 else {k: a * v for k, v in row.items()}
    for k, v in prow.items():
        x = out.get(k, 0) - b * v
        if x:
            out[k] = x
        else:
            del out[k]
    g = gcd(*out.values())
    if g > 1:
        out = {k: v // g for k, v in out.items()}
    return out


def _rat_vec(pairs, den: int, n: int) -> list[Rat]:
    """The rational n-vector of sparse integer pairs (k, m) over den:
    entry k is m / den, and zero entries share ZERO."""
    out = [ZERO] * n
    for k, m in pairs:
        out[k] = ONE if m == den else Fraction(m, den)
    return out


def int_echelon(rows, ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form of sparse integer rows {column: int}, zero
    rows dropped: (rows, pivot columns in increasing order).  Each returned
    row is a nonzero integer multiple of its reduced form; divide it by its
    pivot entry to read the reduced row.  The input rows are not changed.

    Elimination is fraction-free.  Rows wait in buckets keyed by their
    leading column; the sparsest row of a bucket becomes the pivot row, and
    clearing its column from the others moves them to later buckets.  Back
    substitution then clears each pivot column above its pivot.  The
    reduced echelon form is unique, so the choice of pivot rows never shows
    in the result.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not buckets:
            break
        hits = buckets.pop(c, None)
        if hits is None:
            continue
        prow = min(hits, key=len)
        a = prow[c]
        for row in hits:
            if row is not prow:
                row = _eliminate(row, prow, a, row[c])
                if row:
                    buckets.setdefault(min(row), []).append(row)
        echelon.append(prow)
        pivots.append(c)
    where = {c: i for i, c in enumerate(pivots)}
    for i in range(len(echelon) - 2, -1, -1):
        row = echelon[i]
        # rows below are already reduced, so each is zero in every other
        # pivot column and clearing one column leaves the others alone
        for c in [c for c in row if c in where and c != pivots[i]]:
            prow = echelon[where[c]]
            row = _eliminate(row, prow, prow[c], row[c])
        echelon[i] = row
    return echelon, pivots


def int_kernel(echelon: list[dict[int, int]], pivots: list[int], ncols: int) -> list[list[Rat]]:
    """Reduced-echelon basis of the null space of int_echelon's (echelon,
    pivots) over the columns 0 .. ncols - 1, one vector per free column in
    increasing order.  Entries in columns from ncols on, such as the
    right-hand side of an augmented system, are not read."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, p in zip(echelon, pivots):
            x = row.get(free)
            if x:
                v[p] = Fraction(-x, row[p])
        basis.append(v)
    return basis


def rank(rows, ncols: int) -> int:
    """The rank of the sparse integer rows, given as dicts or as (column,
    int) pairs, over ncols columns.  It is the one span test: v lies in
    the span of rows exactly when rank(rows + [v]) == rank(rows)."""
    return len(int_echelon(map(dict, rows), ncols)[1])
