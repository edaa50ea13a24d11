"""Exact arithmetic on rational upper-triangular matrices.

Matrices are tuples of tuples of Fraction.  Everything here terminates
exactly: exp and log of strictly upper-triangular matrices are finite
series because the matrices are nilpotent.

The kernels do no work on exact zeros.  Products, sums and scalings skip
zero operands, and a product adds a row of its right factor as it is
where the left entry is exactly 1, so a unitriangular product costs only
its pairs of nonzero non-unit entries.  exp(tX) is a polynomial in t:
``exp_terms`` lists the nonzero terms X, X^2/2!, ... once, and
``exp_poly`` evaluates I + sum_k t^k X^k/k! with scalar multiply-adds.
``nilpotent_exp`` is that polynomial at t = 1.  Every power, root and
inverse of a unitriangular g is the same polynomial for X = log g:
g^k = exp(k log g), with k = 1/q for a q-th root and k = -1 for the
inverse.  Every result is the same Fraction as the dense formula gives.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
# the nonzero (row, column, entry) triples of one term X^k/k!
SparseTerm = tuple[tuple[int, int, Fraction], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """x as a Fraction: Fractions, integers (numpy ones too) and strings; never floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(map(frac, row)) for row in rows)


@lru_cache(maxsize=None)
def mat_identity(n: int) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, visiting only the nonzero entries of both factors."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [_ZERO] * width  # an entry still _ZERO has no contribution yet
        for x, b_row in zip(row, b_rows):
            if not x:
                continue
            if x == 1:
                for j, y in b_row:
                    s = acc[j]
                    acc[j] = y if s is _ZERO else s + y
            else:
                for j, y in b_row:
                    s = acc[j]
                    acc[j] = x * y if s is _ZERO else s + x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple((x + y if x else y) if y else x for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y if y else x for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    c = frac(c)
    return tuple(tuple(c * x if x else x for x in row) for row in a)


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_strictly_upper(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == 0 for i in range(n) for j in range(i + 1))


def is_unitriangular(a: Matrix) -> bool:
    return all(
        row[i] == 1 and all(x == 0 for x in row[:i]) for i, row in enumerate(a)
    )


def exp_terms(x: Matrix) -> tuple[SparseTerm, ...]:
    """The nonzero terms X, X^2/2!, ... of exp(X) for strictly upper-triangular X.

    Each term is listed by its nonzero entries; the list stops at the
    first vanishing power, so a matrix unit (X^2 = 0) has one term.
    """
    terms = []
    term = x
    for k in range(1, len(x)):
        if k > 1:
            term = mat_scale(Fraction(1, k), mat_mul(term, x))
        entries = tuple(
            (i, j, v) for i, row in enumerate(term) for j, v in enumerate(row) if v
        )
        if not entries:
            break
        terms.append(entries)
    return tuple(terms)


def exp_poly(terms: Sequence[SparseTerm], n: int, t) -> Matrix:
    """exp(tX) = I + sum_k t^k X^k/k! from ``exp_terms(X)``, X of size n."""
    t = frac(t)
    rows = [list(r) for r in mat_identity(n)]
    power = _ONE
    for term in terms:
        power = power * t
        for i, j, v in term:
            p = power if v == 1 else power * v
            s = rows[i][j]
            rows[i][j] = p if s is _ZERO else s + p
    return tuple(map(tuple, rows))


def nilpotent_exp(x: Matrix) -> Matrix:
    """exp of a strictly upper-triangular matrix; the series terminates."""
    return exp_poly(exp_terms(x), len(x), _ONE)


def nilpotent_log(a: Matrix) -> Matrix:
    """log of a unitriangular matrix; exact, inverse of nilpotent_exp."""
    n = len(a)
    x = mat_sub(a, mat_identity(n))
    out = term = x
    for k in range(2, n):
        term = mat_mul(term, x)
        out = mat_add(out, mat_scale(Fraction((-1) ** (k + 1), k), term))
    return out


def upper_entries(a: Matrix) -> tuple[Fraction, ...]:
    """The strictly-upper entries read row by row; a coordinate vector."""
    n = len(a)
    return tuple(a[i][j] for i in range(n) for j in range(i + 1, n))

