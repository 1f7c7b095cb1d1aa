"""Orbifold Riemann-Roch for Fano threefolds with terminal quotient points.

A Fano threefold ``X`` of index ``q`` carries an ample Weil divisor ``A``
with ``-K_X = qA``.  Its terminal cyclic quotient singularities are recorded
as a basket of points ``1/r(a, -a, 1)``; each point of index ``r`` must have
``r`` coprime to ``q``.  For such data the Euler characteristic of ``O(kA)``
is a closed form in exact rationals:

    chi(k) = 1 + k(k+q)(2k+q) A^3 / 12 + k (24 - sigma) / (12 q)
               + sum over basket points of c_p(k)

where ``sigma = sum (r - 1/r)`` over the basket (so ``-K.c2 = 24 - sigma``),
and the local term of a point ``1/r(a, -a, 1)`` at which ``kA`` has local
index ``i = (-k q^{-1}) mod r`` is

    c_p(k) = -i (r^2 - 1) / (12 r)
             + sum_{j=1}^{i-1} (ja mod r)(r - (ja mod r)) / (2 r).

For an actual Fano threefold ``chi(k) = h^0(kA)`` for ``k >= 0`` (vanishing)
and ``chi(k) = 0`` on the window ``-q < k < 0``, which is what makes the
formula a strong integrality sieve on hypothetical ``(q, basket, A^3)``.
The convention above is pinned down by two independent checks in the test
suite: reference dimension tables and monomial counts on weighted
projective models (:mod:`qfano.wps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    @property
    def sigma(self) -> Rational:
        """This point's share of the Kawamata sum, ``r - 1/r``."""
        return Rational(self.r * self.r - 1, self.r)

    def __str__(self) -> str:
        return f"{self.r}:{self.a}"


@dataclass(frozen=True, slots=True, order=True)
class Basket:
    """A multiset of terminal quotient points, kept in sorted order."""

    points: tuple[SingularPoint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(sorted(self.points)))

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
    def index_lcm(self) -> int:
        """Least common multiple of the point indices (1 for no points)."""
        return math.lcm(*(p.r for p in self.points)) if self.points else 1

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(p.r for p in self.points)

    def __str__(self) -> str:
        return "[" + ", ".join(str(p) for p in self.points) + "]"

    @property
    def indices_text(self) -> str:
        """Orientation-free projection, e.g. ``"(2,4,5)"``."""
        return "(" + ",".join(str(r) for r in self.indices) + ")"


def kawamata_sum(basket: Basket) -> Rational:
    """``sigma = sum (r - 1/r)``; terminal Fano baskets satisfy ``sigma < 24``."""
    return sum((p.sigma for p in basket), Rational(0))


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


def point_contribution(k: int, q: int, point: SingularPoint) -> Rational:
    """Local Riemann-Roch correction of one basket point at ``kA``.

    Zero exactly when the local index vanishes, i.e. when ``kA`` is Cartier
    at the point; symmetric in the orientation ``a <-> r - a``.
    """
    r, a = point.r, point.a
    i = local_index(k, q, point)
    total = Rational(-i * (r * r - 1), 12 * r)
    for j in range(1, i):
        ja = (j * a) % r
        total += Rational(ja * (r - ja), 2 * r)
    return total


def chi(k: int, fano: FanoInput) -> Rational:
    """Exact ``chi(O(kA))`` for the numerical data ``fano``.

    Satisfies ``chi(0) = 1`` and the Serre symmetry
    ``chi(k) + chi(-q-k) = 0`` identically in the input data.
    """
    q = fano.q
    value = (
        1
        + Rational(k * (k + q) * (2 * k + q), 12) * fano.a3
        + Rational(k, 12 * q) * (24 - kawamata_sum(fano.basket))
    )
    for p in fano.basket:
        value += point_contribution(k, q, p)
    return value


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

