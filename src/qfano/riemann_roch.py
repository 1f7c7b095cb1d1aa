"""Orbifold Riemann-Roch for Fano threefolds with terminal quotient points.

A Fano threefold ``X`` of index ``q`` carries an ample Weil divisor ``A``
with ``-K_X = qA``.  Its terminal cyclic quotient singularities are recorded
as a basket of points ``1/r(a, -a, 1)``; each point of index ``r`` must have
``r`` coprime to ``q``.  For such data the Euler characteristic of ``O(kA)``
is

    chi(k) = 1 + k(k+q)(2k+q) A^3 / 12 + k (24 - sigma) / (12 q)
               + sum over basket points of c_p(k)

where ``sigma = sum (r - 1/r)`` over the basket (so ``-K.c2 = 24 - sigma``),
and the local term of a point ``1/r(a, -a, 1)`` at which ``kA`` has local
index ``i = (-k q^{-1}) mod r`` is

    c_p(k) = -i (r^2 - 1) / (12 r)
             + sum_{j=1}^{i-1} (ja mod r)(r - (ja mod r)) / (2 r).

This module states the formula once, in integers: with ``N`` the lcm of
the basket indices, :func:`scaled_kawamata_sum` is ``N sigma``, and
:func:`local_terms` is the one statement of the local term: the table of
``12 r c_p(k)`` by ``k mod r``, built once per ``(q, r, a)`` and kept in one
bounded store, by ``q`` and then by point.  So ``12qN chi(k)`` less its
degree term is the integer ``12qN + k(24N - N sigma) + q sum_p (N/r) 12 r
c_p(k)``.  :func:`chi` reads ``q``, the basket's points, ``N`` and
``N sigma`` and the integer ratio of ``A^3`` once; it finds its ``q``'s
tables with one lookup and each point's table with one more, and reads it
at ``k mod r``.  It adds the degree term over ``12qN den(A^3)`` and divides
once.  An integral value (every value :func:`dims` and :func:`genus` read)
is the ``Fraction`` of the quotient, taken from a prebuilt tuple for
``0..255`` and otherwise built, with no gcd; any other value is the reduced
``Fraction`` of its numerator and denominator.  :mod:`qfano.enumeration`
builds its sieve from the same two functions.

For an actual Fano threefold ``chi(k) = h^0(kA)`` for ``k >= 0`` (vanishing)
and ``chi(k) = 0`` on the window ``-q < k < 0``, which is what makes the
formula a strong integrality sieve on hypothetical ``(q, basket, A^3)``.
The test suite pins the convention down by reference dimension tables,
monomial counts on weighted projective models (:mod:`qfano.wps`), and a
rational transcription of the formula that shares no code with this module.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

from .arith import Rational, canonical_orientation, format_rational


class IndexNotCoprimeError(ValueError):
    """Raised when a basket index shares a factor with the Fano index."""


class NonIntegralChiError(ValueError):
    """Raised when chi(k) is demanded as an integer but is fractional."""

    def __init__(self, k: int, value: Rational):
        self.k = k
        self.value = value
        super().__init__(f"chi({k}) = {format_rational(value)} is not an integer")


class SingularPoint(namedtuple("SingularPoint", "r a")):
    """A terminal cyclic quotient point ``1/r(a, -a, 1)``.

    The orientation is stored canonically (``1 <= a <= r/2``, coprime to
    ``r``); constructing with the mirror multiplier ``r - a`` gives the same
    point, and so does unpickling.  Points order by ``(r, a)``.
    """

    __slots__ = ()
    # so that _replace, which builds through _make, canonicalises too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, r: int, a: int = 1) -> "SingularPoint":
        return tuple.__new__(cls, (r, canonical_orientation(a, r)))

    def __str__(self) -> str:
        return f"{self.r}:{self.a}"


class Basket(namedtuple("Basket", "points index_lcm sigma_scaled")):
    """A multiset of terminal quotient points, kept in sorted order.

    ``points`` is the multiset.  ``index_lcm`` (``N``, the lcm of the point
    indices, 1 for no points) and ``sigma_scaled`` (``N sigma``, see
    :func:`scaled_kawamata_sum`) are functions of the points, computed once
    on construction, so equality, order and hash agree with the points'.
    ``_replace`` and unpickling build through the constructor too.
    """

    __slots__ = ()
    # so that _replace, which builds through _make, derives N and N sigma
    # too: it takes the points alone, and refuses the other two fields
    _make = classmethod(lambda cls, fields: cls(next(iter(fields))))

    def __new__(cls, points: Iterable[SingularPoint] = ()) -> "Basket":
        points = tuple(sorted(points))
        n_lcm = math.lcm(*[p.r for p in points])
        return tuple.__new__(cls, (points, n_lcm, scaled_kawamata_sum(points, n_lcm)))

    @classmethod
    def _from_sorted(
        cls, points: tuple[SingularPoint, ...], index_lcm: int, sigma_scaled: int
    ) -> "Basket":
        """Trust the caller: ``points`` already sorted, ``index_lcm`` their
        lcm and ``sigma_scaled`` their ``N sigma``.  Neither sorts nor sums."""
        return tuple.__new__(cls, (points, index_lcm, sigma_scaled))

    def __getnewargs__(self) -> tuple[tuple[SingularPoint, ...]]:
        return (self.points,)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Basket":
        return cls(tuple(SingularPoint(r, a) for r, a in pairs))

    @classmethod
    def from_text(cls, text: str) -> "Basket":
        """Parse the bracket form, e.g. ``"[2:1, 4:1, 5:2]"`` or ``"[]"``."""
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"not a basket literal: {text!r}")
        body = body[1:-1].strip()
        if not body:
            return cls()
        pairs = []
        for chunk in body.split(","):
            r_text, _, a_text = chunk.partition(":")
            if not a_text:
                raise ValueError(f"malformed basket entry {chunk!r} in {text!r}")
            pairs.append((int(r_text.strip()), int(a_text.strip())))
        return cls.from_pairs(pairs)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(p.r for p in self.points)

    def __str__(self) -> str:
        return "[" + ", ".join(str(p) for p in self.points) + "]"


def scaled_kawamata_sum(points: Iterable[SingularPoint], n_lcm: int) -> int:
    """``N sigma`` as an integer, where ``N`` is a multiple of every index."""
    return sum((n_lcm // p.r) * (p.r * p.r - 1) for p in points)


def kawamata_sum(basket: Basket) -> Rational:
    """``sigma = sum (r - 1/r)``; terminal Fano baskets satisfy ``sigma < 24``."""
    return Rational(basket.sigma_scaled, basket.index_lcm)


class FanoInput(namedtuple("FanoInput", "q basket a3")):
    """Numerical input data ``(q, basket, A^3)`` for the Riemann-Roch formula."""

    __slots__ = ()
    # so that _replace, which builds through _make, checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, q: int, basket: Basket, a3: Rational) -> "FanoInput":
        if q < 1:
            raise ValueError(f"Fano index must be >= 1, got {q}")
        # a Fraction's denominator is positive: the sign is the numerator's
        if a3.numerator <= 0:
            raise ValueError(f"degree A^3 must be positive, got {a3}")
        for p in basket.points:
            if math.gcd(p.r, q) != 1:
                raise IndexNotCoprimeError(
                    f"point index {p.r} is not coprime to Fano index {q}"
                )
        return tuple.__new__(cls, (q, basket, a3))


def local_index(k: int, q: int, point: SingularPoint) -> int:
    """Local index of ``kA`` at the point: ``(-k q^{-1}) mod r``.

    ``-K = qA`` has local index ``r - 1`` at every point (k = q recovers
    the canonical class up to sign), and index 0 means ``kA`` is Cartier
    there.
    """
    if math.gcd(q, point.r) != 1:
        raise IndexNotCoprimeError(
            f"point index {point.r} is not coprime to Fano index {q}"
        )
    return (-k * pow(q, -1, point.r)) % point.r


#: The one store of the local tables, ``_tables[q][(r, a)]``: a :func:`chi`
#: call finds its ``q``'s tables with one lookup and each point's with one
#: more.  It holds at most ``_MAX_TABLES`` tables and is emptied when full.
#: That is room for every table a scan or a load reads: one per point of each
#: index's domain, 827 for all twelve indices (13,437 integers), so none is
#: built twice.  The bound stays because chi also takes baskets outside every
#: domain.
_MAX_TABLES = 1024
_tables: dict[int, dict[tuple[int, int], tuple[int, ...]]] = {}

#: ``chi``'s integral values ``0..255``, built once: returning one builds no
#: ``Fraction``.  Every ``chi`` a database holds lies in ``1..66``.
_WHOLES = tuple(map(Rational, range(256)))


def local_terms(q: int, r: int, a: int) -> tuple[int, ...]:
    """``12 r c_p(k)`` for the point ``1/r(a, -a, 1)`` of index-``q`` data, by ``k mod r``.

    The local index is linear in ``k``, ``i(k) = k i(1) mod r``, and the
    sum over ``j < i`` is one running total over ``i``, so a table costs
    ``O(r)``; it is built once and kept in ``_tables``.  Raises
    :class:`IndexNotCoprimeError` unless ``gcd(q, r) = 1``.
    """
    table = _tables.get(q, {}).get((r, a))
    if table is not None:
        return table
    step = local_index(1, q, SingularPoint(r, a))
    by_index = [0] * r
    inner = 0
    for i in range(1, r):
        ja = ((i - 1) * a) % r
        inner += ja * (r - ja)
        by_index[i] = 6 * inner - i * (r * r - 1)
    table = tuple(by_index[k * step % r] for k in range(r))
    if sum(map(len, _tables.values())) >= _MAX_TABLES:
        _tables.clear()
    _tables.setdefault(q, {})[r, a] = table
    return table


def chi(k: int, fano: FanoInput) -> Rational:
    """Exact ``chi(O(kA))`` for the numerical data ``fano``.

    Satisfies ``chi(0) = 1`` and the Serre symmetry
    ``chi(k) + chi(-q-k) = 0`` identically in the input data.
    """
    q, (points, n_lcm, sigma_scaled), a3 = fano
    a3_num, a3_den = a3.as_integer_ratio()
    qn = q * n_lcm
    # a point is a (r, a) pair, so it is its own key in its q's tables
    tables = _tables.get(q, {})
    local = 0
    for p in points:
        r = p[0]
        local += (n_lcm // r) * (tables.get(p) or local_terms(q, r, p[1]))[k % r]
    # 12qN chi(k) less its degree term, in integers (module docstring)
    rest = 12 * qn + k * (24 * n_lcm - sigma_scaled) + q * local
    top = rest * a3_den + qn * k * (k + q) * (2 * k + q) * a3_num
    bottom = 12 * qn * a3_den
    whole, remainder = divmod(top, bottom)
    if remainder:
        return Rational(top, bottom)
    return _WHOLES[whole] if 0 <= whole < len(_WHOLES) else Rational(whole)


def chi_integer(k: int, fano: FanoInput) -> int:
    """``chi(k)`` as an integer; raises :class:`NonIntegralChiError` if not."""
    whole, den = chi(k, fano).as_integer_ratio()
    if den != 1:
        raise NonIntegralChiError(k, Rational(whole, den))
    return whole


def dims(fano: FanoInput, kmax: int) -> list[int]:
    """Projective dimensions ``dim |kA| = chi(k) - 1`` for ``k = 1..kmax``.

    An empty linear system shows up as ``-1``.  Raises
    :class:`NonIntegralChiError` on data that fails integrality.
    """
    return [chi_integer(k, fano) - 1 for k in range(1, kmax + 1)]


def genus(fano: FanoInput) -> int:
    """Anticanonical genus ``g = dim |-K| - 1 = chi(q) - 2``."""
    return chi_integer(fano.q, fano) - 2
