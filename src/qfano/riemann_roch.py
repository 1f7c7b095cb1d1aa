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
``12 r c_p(k)`` by ``k mod r``, built once per ``(q, r, a)`` and cached.
So ``12qN chi(k)`` less its degree term is the integer
``12qN + k(24N - N sigma) + q sum_p (N/r) 12 r c_p(k)``.  :func:`chi` adds
the degree term over the common denominator ``12qN den(A^3)`` and divides
once: an integral value (every value :func:`dims` and :func:`genus` read) is
returned as ``Fraction(quotient)``, which needs no gcd, and any other value
as the ``Fraction`` of numerator and denominator, reduced.  Both are plain
``Fraction`` objects.  The sieve in :mod:`qfano.enumeration` is built from
the same two functions.

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
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator

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


# the order of points, as a key: sorting by it calls no Python code
_point_order = attrgetter("r", "a")


class Basket:
    """A multiset of terminal quotient points, kept in sorted order.

    ``index_lcm`` (``N``, the lcm of the point indices, 1 for no points) and
    ``sigma_scaled`` (``N sigma``, see :func:`scaled_kawamata_sum`) are
    computed once, on construction.  Equality, hashing, ordering and repr
    look at ``points`` only, and no field can be assigned.
    """

    __slots__ = ("points", "index_lcm", "sigma_scaled")

    def __new__(cls, points: Iterable[SingularPoint] = ()) -> "Basket":
        points = tuple(sorted(points, key=_point_order))
        n_lcm = math.lcm(*(p.r for p in points))
        return cls._from_sorted(points, n_lcm, scaled_kawamata_sum(points, n_lcm))

    @classmethod
    def _from_sorted(
        cls, points: tuple[SingularPoint, ...], index_lcm: int, sigma_scaled: int
    ) -> "Basket":
        """Trust the caller: ``points`` already sorted, ``index_lcm`` their
        lcm and ``sigma_scaled`` their ``N sigma``.  Neither sorts nor sums.

        The basket walk builds one basket per node, so the three slots are
        written through the class's own slot descriptors, bound once below.
        They bypass only ``__setattr__``, which stays in place, so an
        assignment to the instance still raises.
        """
        basket = object.__new__(cls)
        _set_points(basket, points)
        _set_index_lcm(basket, index_lcm)
        _set_sigma_scaled(basket, sigma_scaled)
        return basket

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

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # pickled as its points and rebuilt by the constructor: the default
    # would assign the slots, which __setattr__ refuses
    def __reduce__(self):
        return type(self), (self.points,)

    # hash((points,)), as a record with the one compared field ``points``
    # hashes, so sets and dicts of baskets keep their iteration order
    def __hash__(self) -> int:
        return hash((self.points,))

    def __eq__(self, other):
        return self.points == other.points if isinstance(other, Basket) else NotImplemented

    def __lt__(self, other):
        return self.points < other.points if isinstance(other, Basket) else NotImplemented

    def __le__(self, other):
        return self.points <= other.points if isinstance(other, Basket) else NotImplemented

    def __gt__(self, other):
        return self.points > other.points if isinstance(other, Basket) else NotImplemented

    def __ge__(self, other):
        return self.points >= other.points if isinstance(other, Basket) else NotImplemented

    def __repr__(self) -> str:
        return f"Basket(points={self.points!r})"

    def __iter__(self) -> Iterator[SingularPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __bool__(self) -> bool:
        return bool(self.points)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(p.r for p in self.points)

    def __str__(self) -> str:
        return "[" + ", ".join(str(p) for p in self.points) + "]"


# the slot writers of Basket._from_sorted
_set_points = Basket.points.__set__
_set_index_lcm = Basket.index_lcm.__set__
_set_sigma_scaled = Basket.sigma_scaled.__set__


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


# room for the largest index's domain (84 points) beside the 125 tables a
# load of the full database reads: an index's scan and a load each build a
# table once.  A table of index r holds r integers.
@lru_cache(maxsize=256)
def local_terms(q: int, r: int, a: int) -> tuple[int, ...]:
    """``12 r c_p(k)`` for the point ``1/r(a, -a, 1)`` of index-``q`` data, by ``k mod r``.

    The local index is linear in ``k``, ``i(k) = k i(1) mod r``, and the
    sum over ``j < i`` is one running total over ``i``, so a table costs
    ``O(r)``.  Raises :class:`IndexNotCoprimeError` unless ``gcd(q, r) = 1``.
    """
    step = local_index(1, q, SingularPoint(r, a))
    by_index = [0] * r
    inner = 0
    for i in range(1, r):
        ja = ((i - 1) * a) % r
        inner += ja * (r - ja)
        by_index[i] = 6 * inner - i * (r * r - 1)
    return tuple(by_index[k * step % r] for k in range(r))


def chi(k: int, fano: FanoInput) -> Rational:
    """Exact ``chi(O(kA))`` for the numerical data ``fano``.

    Satisfies ``chi(0) = 1`` and the Serre symmetry
    ``chi(k) + chi(-q-k) = 0`` identically in the input data.
    """
    q, basket, a3 = fano.q, fano.basket, fano.a3
    n_lcm = basket.index_lcm
    a3_num, a3_den = a3.numerator, a3.denominator
    # 12qN chi(k) less its degree term, in integers (module docstring)
    rest = 12 * q * n_lcm + k * (24 * n_lcm - basket.sigma_scaled)
    for p in basket.points:
        r = p.r
        rest += q * (n_lcm // r) * local_terms(q, r, p.a)[k % r]
    top = rest * a3_den + q * n_lcm * k * (k + q) * (2 * k + q) * a3_num
    bottom = 12 * q * n_lcm * a3_den
    whole, remainder = divmod(top, bottom)
    if remainder == 0:
        return Rational(whole)
    return Rational(top, bottom)


def chi_integer(k: int, fano: FanoInput) -> int:
    """``chi(k)`` as an integer; raises :class:`NonIntegralChiError` if not."""
    value = chi(k, fano)
    if value.denominator != 1:
        raise NonIntegralChiError(k, value)
    return value.numerator


def dims(fano: FanoInput, kmax: int) -> list[int]:
    """Projective dimensions ``dim |kA| = chi(k) - 1`` for ``k = 1..kmax``.

    An empty linear system shows up as ``-1``.  Raises
    :class:`NonIntegralChiError` on data that fails integrality.
    """
    return [chi_integer(k, fano) - 1 for k in range(1, kmax + 1)]


def genus(fano: FanoInput) -> int:
    """Anticanonical genus ``g = dim |-K| - 1 = chi(q) - 2``."""
    return chi_integer(fano.q, fano) - 2

