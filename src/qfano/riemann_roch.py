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
the degree term in one exact rational, and the sieve in
:mod:`qfano.enumeration` is built from the same two functions.

For an actual Fano threefold ``chi(k) = h^0(kA)`` for ``k >= 0`` (vanishing)
and ``chi(k) = 0`` on the window ``-q < k < 0``, which is what makes the
formula a strong integrality sieve on hypothetical ``(q, basket, A^3)``.
The test suite pins the convention down by reference dimension tables,
monomial counts on weighted projective models (:mod:`qfano.wps`), and a
rational transcription of the formula that shares no code with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .arith import Rational, canonical_orientation, format_rational, mod_inverse


class IndexNotCoprimeError(ValueError):
    """Raised when a basket index shares a factor with the Fano index."""


class NonIntegralChiError(ValueError):
    """Raised when chi(k) is demanded as an integer but is fractional."""

    def __init__(self, k: int, value: Rational):
        self.k = k
        self.value = value
        super().__init__(f"chi({k}) = {format_rational(value)} is not an integer")


@dataclass(frozen=True, slots=True, order=True)
class SingularPoint:
    """A terminal cyclic quotient point ``1/r(a, -a, 1)``.

    The orientation is stored canonically (``1 <= a <= r/2``, coprime to
    ``r``); constructing with the mirror multiplier ``r - a`` gives the same
    point.
    """

    r: int
    a: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", canonical_orientation(self.a, self.r))

    def __str__(self) -> str:
        return f"{self.r}:{self.a}"


@dataclass(frozen=True, slots=True, order=True)
class Basket:
    """A multiset of terminal quotient points, kept in sorted order.

    ``index_lcm`` (``N``, the lcm of the point indices, 1 for no points) and
    ``sigma_scaled`` (``N sigma``, see :func:`scaled_kawamata_sum`) are
    computed once, on construction.  Equality, hashing, ordering and repr
    look at ``points`` only.
    """

    points: tuple[SingularPoint, ...] = ()
    index_lcm: int = field(init=False, repr=False, compare=False)
    sigma_scaled: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = tuple(sorted(self.points))
        n_lcm = math.lcm(*(p.r for p in points))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "index_lcm", n_lcm)
        object.__setattr__(self, "sigma_scaled", scaled_kawamata_sum(points, n_lcm))

    @classmethod
    def _from_sorted(
        cls, points: tuple[SingularPoint, ...], index_lcm: int, sigma_scaled: int
    ) -> "Basket":
        """Trust the caller: ``points`` already sorted, ``index_lcm`` their
        lcm and ``sigma_scaled`` their ``N sigma``.  Neither sorts nor sums."""
        basket = object.__new__(cls)
        object.__setattr__(basket, "points", points)
        object.__setattr__(basket, "index_lcm", index_lcm)
        object.__setattr__(basket, "sigma_scaled", sigma_scaled)
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

    @property
    def indices_text(self) -> str:
        """Orientation-free projection, e.g. ``"(2,4,5)"``."""
        return "(" + ",".join(str(r) for r in self.indices) + ")"


def scaled_kawamata_sum(points: Iterable[SingularPoint], n_lcm: int) -> int:
    """``N sigma`` as an integer, where ``N`` is a multiple of every index."""
    return sum((n_lcm // p.r) * (p.r * p.r - 1) for p in points)


def kawamata_sum(basket: Basket) -> Rational:
    """``sigma = sum (r - 1/r)``; terminal Fano baskets satisfy ``sigma < 24``."""
    return Rational(basket.sigma_scaled, basket.index_lcm)


@dataclass(frozen=True, slots=True)
class FanoInput:
    """Numerical input data ``(q, basket, A^3)`` for the Riemann-Roch formula."""

    q: int
    basket: Basket
    a3: Rational

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"Fano index must be >= 1, got {self.q}")
        if self.a3 <= 0:
            raise ValueError(f"degree A^3 must be positive, got {self.a3}")
        for p in self.basket:
            if math.gcd(p.r, self.q) != 1:
                raise IndexNotCoprimeError(
                    f"point index {p.r} is not coprime to Fano index {self.q}"
                )


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
    return (-k * mod_inverse(q, point.r)) % point.r


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


def point_contribution(k: int, q: int, point: SingularPoint) -> Rational:
    """Local Riemann-Roch correction ``c_p(k)`` of one basket point at ``kA``.

    Zero exactly when the local index vanishes, i.e. when ``kA`` is Cartier
    at the point; symmetric in the orientation ``a <-> r - a``.
    """
    return Rational(local_terms(q, point.r, point.a)[k % point.r], 12 * point.r)


def chi(k: int, fano: FanoInput) -> Rational:
    """Exact ``chi(O(kA))`` for the numerical data ``fano``.

    Satisfies ``chi(0) = 1`` and the Serre symmetry
    ``chi(k) + chi(-q-k) = 0`` identically in the input data.
    """
    q, basket, a3 = fano.q, fano.basket, fano.a3
    n_lcm = basket.index_lcm
    # 12qN chi(k) less its degree term, in integers (module docstring)
    rest = 12 * q * n_lcm + k * (24 * n_lcm - basket.sigma_scaled)
    for p in basket:
        rest += q * (n_lcm // p.r) * local_terms(q, p.r, p.a)[k % p.r]
    return Rational(
        rest * a3.denominator + q * n_lcm * k * (k + q) * (2 * k + q) * a3.numerator,
        12 * q * n_lcm * a3.denominator,
    )


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

