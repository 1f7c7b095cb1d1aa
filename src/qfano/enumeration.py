"""Exhaustive enumeration of numerical Fano threefold candidates.

A candidate is a triple ``(q, basket, A^3)`` that survives every numerical
test an actual Fano threefold of index ``q`` would have to pass:

* each basket index coprime to ``q`` and Kawamata sum ``sigma < 24``;
* the Bogomolov-Miyaoka inequality ``(4q-3) q^3 A^3 <= 4 q^2 (24 - sigma)``;
* optionally the degree cap ``-K^3 = q^3 A^3 <= 125/2``;
* ``chi(k)`` integral over a full period, zero on ``-q < k < 0``, and
  non-negative for ``k >= 0``.

:func:`degree_candidates` is the one place that decides the degree range,
in integers only.  The integrality sieve runs on a rescaled integer kernel
(:class:`_BasketScanner`) that evaluates ``12 q N chi(k)`` with machine
integers and bails out at the first failing ``k``; the test suite
cross-checks it against a rational re-statement of the formulas in
:mod:`qfano.riemann_roch`.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from multiprocessing import Pool
from typing import Iterator, Sequence

from .arith import Rational, format_rational
from .riemann_roch import (
    Basket,
    FanoInput,
    SingularPoint,
    chi_integer,
    dims,
    genus,
    kawamata_sum,
)

#: Fano indices a terminal threefold can have in the range this tool covers.
INDEX_SET: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 17, 19)

#: ``sigma(r) = r - 1/r < 24`` forces every basket index below this.
MAX_POINT_INDEX = 24

_SIGMA_LIMIT = Rational(24)

#: Known bound on ``-K^3 = q^3 A^3``, attained only by the quadric cone.
DEGREE_CAP = Rational(125, 2)

#: The one triple ``(q, basket, A^3)`` kept at the cap with equality.
DEGREE_CAP_EXCEPTION: tuple[int, Basket, Rational] = (
    5,
    Basket((SingularPoint(2, 1),)),
    Rational(1, 2),
)


@dataclass(frozen=True, slots=True)
class FilterConfig:
    """Switches for the candidate filters; ``qfano diff`` shows each one's effect.

    The degree walk is always bounded by Bogomolov-Miyaoka unless
    ``degree_cap_enforced`` bounds it instead.  Calibration against the
    reference tallies showed the cap must *not* prune the enumeration
    itself: the per-index totals (231, 124, ..., 472 in all) include a
    handful of candidates above the cap, and the boundary row with basket
    ``(2,2,3,6)`` appears in the index-5 survey table.  So by default the cap
    is applied only where the survey tables and facts are rendered.
    ``degree_cap_enforced=True`` cuts degrees at the cap, admitting equality
    only for :data:`DEGREE_CAP_EXCEPTION`; ``bm_inequality`` then adds the
    Bogomolov-Miyaoka bound on top, so it acts only in that set.
    ``nonnegativity`` was measured to remove nothing in either set at any
    index; it stays because the benchmark runs ``qfano diff`` over every flag.
    """

    degree_cap_enforced: bool = False
    enforce_vanishing: bool = True
    bm_inequality: bool = True
    nonnegativity: bool = True


DEFAULT_CONFIG = FilterConfig()

#: Named configurations selectable from the command line.
FILTER_SETS: dict[str, FilterConfig] = {
    "default": DEFAULT_CONFIG,
    "capped": FilterConfig(degree_cap_enforced=True),
}

#: Boolean FilterConfig fields whose individual effect `qfano diff` reports.
FILTER_FLAGS = (
    "degree_cap_enforced",
    "enforce_vanishing",
    "bm_inequality",
    "nonnegativity",
)


@dataclass(frozen=True, slots=True)
class Candidate:
    """One enumerated numerical candidate with its derived invariants."""

    q: int
    basket: Basket
    a3: Rational
    sigma: Rational
    minus_k3: Rational
    minus_k_c2: Rational
    dims: tuple[int, ...]
    genus: int
    id: str

    @classmethod
    def from_parts(cls, q: int, basket: Basket, a3: Rational) -> "Candidate":
        fano = FanoInput(q=q, basket=basket, a3=a3)
        sigma = kawamata_sum(basket)
        g = genus(fano)
        return cls(
            q=q,
            basket=basket,
            a3=a3,
            sigma=sigma,
            minus_k3=q**3 * a3,
            minus_k_c2=24 - sigma,
            dims=tuple(dims(fano, q)),
            genus=g,
            id=candidate_id(q, basket, a3),
        )

    @property
    def fano(self) -> FanoInput:
        return FanoInput(q=self.q, basket=self.basket, a3=self.a3)

    def dim(self, k: int) -> int:
        """``dim |kA|`` for any ``k >= 0`` (cached for ``k <= q``)."""
        if k == 0:
            return 0
        if 1 <= k <= self.q:
            return self.dims[k - 1]
        return chi_integer(k, self.fano) - 1

    def sort_key(self):
        """Canonical order: index, then degree descending, then basket."""
        return (self.q, -self.a3, self.basket)


def candidate_id(q: int, basket: Basket, a3: Rational) -> str:
    """Stable text id derived from the candidate content only."""
    pts = "_".join(f"{p.r}.{p.a}" for p in basket) if basket else "smooth"
    return f"q{q}-{pts}-a{a3.numerator}.{a3.denominator}"


def point_domain(q: int) -> list[SingularPoint]:
    """All admissible basket points for index ``q``, in canonical order."""
    points = []
    for r in range(2, MAX_POINT_INDEX + 1):
        if math.gcd(r, q) != 1:
            continue
        for a in range(1, r // 2 + 1):
            if math.gcd(a, r) == 1:
                points.append(SingularPoint(r, a))
    return sorted(points)


def enumerate_baskets(q: int) -> Iterator[Basket]:
    """Yield every basket with indices coprime to ``q`` and ``sigma < 24``.

    Baskets come out exactly once each, in canonical (lexicographic) order,
    starting with the empty basket.
    """
    domain = point_domain(q)
    sigmas = [p.sigma for p in domain]
    stack: list[SingularPoint] = []

    def rec(start: int, budget: Rational) -> Iterator[Basket]:
        yield Basket(tuple(stack))
        for idx in range(start, len(domain)):
            s = sigmas[idx]
            if s >= budget:
                # sigma is non-decreasing along the domain, so nothing
                # later fits either
                break
            stack.append(domain[idx])
            yield from rec(idx, budget - s)
            stack.pop()

    return rec(0, _SIGMA_LIMIT)


def _scaled_kawamata_sum(basket: Basket, n_lcm: int) -> int:
    """``N sigma`` as an integer, where ``N`` is a multiple of every index."""
    return sum((n_lcm // p.r) * (p.r * p.r - 1) for p in basket)


def degree_candidates(
    q: int, basket: Basket, config: FilterConfig = DEFAULT_CONFIG
) -> list[Rational]:
    """Degree values ``A^3 = n/N`` to feed the filter battery, increasing.

    ``n`` runs up to the Bogomolov-Miyaoka bound
    ``(4q-3) q n <= 4 (24N - N sigma)``.  With ``degree_cap_enforced`` it
    runs up to the cap ``q^3 n / N <= 125/2`` instead (plus the BM bound
    when ``bm_inequality`` is set), and a degree meeting the cap with
    equality is dropped unless the triple is :data:`DEGREE_CAP_EXCEPTION`.
    """
    n_lcm = basket.index_lcm
    room = 24 * n_lcm - _scaled_kawamata_sum(basket, n_lcm)
    bounds = []
    if config.bm_inequality or not config.degree_cap_enforced:
        bounds.append(4 * room // ((4 * q - 3) * q))
    if config.degree_cap_enforced:
        cap_num = DEGREE_CAP.numerator * n_lcm
        cap_den = DEGREE_CAP.denominator * q**3
        n_cap = cap_num // cap_den
        if cap_num % cap_den == 0 and (
            (q, basket, Rational(n_cap, n_lcm)) != DEGREE_CAP_EXCEPTION
        ):
            n_cap -= 1
        bounds.append(n_cap)
    return [Rational(n, n_lcm) for n in range(1, min(bounds) + 1)]


def integrality_window(fano: FanoInput) -> int:
    """Period of the fractional part of ``chi``: checking one period suffices."""
    sigma = kawamata_sum(fano.basket)
    return math.lcm(
        12 * fano.a3.denominator,
        12 * fano.q * sigma.denominator,
        fano.basket.index_lcm,
    )


def passes_integrality(
    fano: FanoInput,
    *,
    enforce_vanishing: bool = True,
    nonnegativity: bool = True,
) -> bool:
    """Integrality sieve over one full period, on the integer kernel.

    Checks ``chi(k) = 0`` on the window ``-q < k < 0``, and integrality
    (plus optional non-negativity) for ``0 <= k < L`` where ``L`` is
    :func:`integrality_window`.  This runs the same :class:`_BasketScanner`
    as the enumeration; the rational-arithmetic oracle it is checked against
    is ``_reference_passes`` in ``tests/test_enumeration.py``.
    """
    scanner = _BasketScanner(fano.q, fano.basket)
    return scanner.scan(
        fano.a3,
        enforce_vanishing=enforce_vanishing,
        nonnegativity=nonnegativity,
    )


class _BasketScanner:
    """Integer-arithmetic evaluator of ``T(k) = 12 q N chi(k)`` for one basket.

    With ``A^3 = n/N``, ``N`` the lcm of the basket indices, every term of
    ``12 q N chi(k)`` is an integer:

        T(k) = 12qN + q n k(k+q)(2k+q) + k (24N - N sigma) + q W(k)

    where ``W(k) = 12 N sum_p c_p(k)`` is periodic mod ``N`` and is built
    from per-point tables indexed by ``k mod r``.  ``chi(k)`` is integral
    iff ``T(k) % 12qN == 0``, and signs/zeros transfer directly.
    """

    __slots__ = ("q", "n_lcm", "modulus", "sigma_scaled", "linear_coeff", "tables")

    def __init__(self, q: int, basket: Basket):
        self.q = q
        n_lcm = basket.index_lcm
        self.n_lcm = n_lcm
        self.modulus = 12 * q * n_lcm
        self.sigma_scaled = _scaled_kawamata_sum(basket, n_lcm)
        self.linear_coeff = 24 * n_lcm - self.sigma_scaled
        tables: list[tuple[int, tuple[int, ...]]] = []
        for point in basket:
            r, a = point.r, point.a
            qinv = pow(q, -1, r)
            scale = n_lcm // r
            column = []
            for kmod in range(r):
                i = (-kmod * qinv) % r
                inner = 0
                for j in range(1, i):
                    ja = (j * a) % r
                    inner += ja * (r - ja)
                column.append(scale * (-i * (r * r - 1) + 6 * inner))
            tables.append((r, tuple(column)))
        # merge identical points: many baskets repeat (2,1) etc.
        merged: dict[tuple[int, tuple[int, ...]], int] = {}
        for entry in tables:
            merged[entry] = merged.get(entry, 0) + 1
        self.tables = tuple(
            (r, tuple(c * mult for c in col)) for (r, col), mult in merged.items()
        )

    def chi_scaled(self, k: int, n: int) -> int:
        """``12 q N chi(k)`` for ``A^3 = n/N`` as a plain integer."""
        q = self.q
        value = (
            self.modulus
            + q * n * k * (k + q) * (2 * k + q)
            + k * self.linear_coeff
        )
        for r, column in self.tables:
            value += q * column[k % r]
        return value

    def window(self, n: int) -> int:
        a3_den = self.n_lcm // math.gcd(n, self.n_lcm)
        sigma_den = self.n_lcm // math.gcd(self.sigma_scaled, self.n_lcm)
        return math.lcm(12 * a3_den, 12 * self.q * sigma_den, self.n_lcm)

    def scan(
        self,
        a3: Rational,
        *,
        enforce_vanishing: bool = True,
        nonnegativity: bool = True,
    ) -> bool:
        """Run the full integrality battery for one degree."""
        if self.n_lcm % a3.denominator != 0:
            return False
        n = a3.numerator * (self.n_lcm // a3.denominator)
        modulus = self.modulus
        if enforce_vanishing:
            for k in range(1 - self.q, 0):
                if self.chi_scaled(k, n) != 0:
                    return False
        for k in range(1, self.window(n)):
            value = self.chi_scaled(k, n)
            if value % modulus != 0:
                return False
            if nonnegativity and value < 0:
                return False
        return True


def _scan_baskets(
    q: int, baskets: Sequence[Basket], config: FilterConfig
) -> list[Candidate]:
    found = []
    for basket in baskets:
        degrees = degree_candidates(q, basket, config)
        if not degrees:
            continue
        scanner = _BasketScanner(q, basket)
        for a3 in degrees:
            if scanner.scan(
                a3,
                enforce_vanishing=config.enforce_vanishing,
                nonnegativity=config.nonnegativity,
            ):
                found.append(Candidate.from_parts(q, basket, a3))
    return found


def _scan_job(args: tuple[int, list[Basket], FilterConfig]) -> list[Candidate]:
    return _scan_baskets(*args)


def enumerate_candidates(
    q: int, config: FilterConfig = DEFAULT_CONFIG, jobs: int = 1
) -> list[Candidate]:
    """All candidates of index ``q``, canonically sorted.

    ``jobs > 1`` splits the basket list over worker processes, at most one
    per CPU and per basket; the result is merged and sorted, so it is
    byte-for-byte independent of ``jobs``.
    """
    baskets = list(enumerate_baskets(q))
    workers = min(jobs, os.cpu_count() or 1, len(baskets))
    if workers <= 1:
        found = _scan_baskets(q, baskets, config)
    else:
        chunks = [(q, baskets[i::workers], config) for i in range(workers)]
        with Pool(processes=workers) as pool:
            found = list(itertools.chain.from_iterable(pool.map(_scan_job, chunks)))
    found.sort(key=Candidate.sort_key)
    return found


@dataclass(frozen=True, slots=True)
class Fact:
    """A machine-checked statement about the candidate database."""

    name: str
    statement: str
    value: str
    holds: bool


def series_class(candidate: Candidate) -> tuple:
    """Everything a survey-table row shows: orientations collapse here.

    Two candidates with the same index, basket index-multiset, degree and
    dimension table are indistinguishable at the level the tables print.
    """
    return (candidate.q, candidate.basket.indices, candidate.a3, candidate.dims)


def _series_classes(candidates: Sequence[Candidate]) -> dict[tuple, list[Candidate]]:
    groups: dict[tuple, list[Candidate]] = {}
    for cand in candidates:
        groups.setdefault(series_class(cand), []).append(cand)
    return groups


def _class_label(key: tuple) -> str:
    indices = "(" + ",".join(str(r) for r in key[1]) + ")"
    return f"q={key[0]} {indices} A3={format_rational(key[2])}"


def facts(candidates: Sequence[Candidate]) -> list[Fact]:
    """Derive the headline structural facts from an enumerated database.

    The statements quantify over the ambient degree range ``-K^3 <= 125/2``
    (equality admitted) — the range the survey tables print.  An uncapped
    database holds a handful of higher-degree candidates whose linear
    systems move more freely; they are outside every statement's scope, so
    the same facts hold whether or not the database was enumerated with the
    cap enforced.
    """
    candidates = [c for c in candidates if c.minus_k3 <= DEGREE_CAP]
    out = []

    high = [c for c in candidates if c.q >= 8]
    max_dim1 = max((c.dim(1) for c in high), default=None)
    out.append(
        Fact(
            name="high-index-no-moving-A",
            statement="every candidate with q >= 8 in the survey degree range has dim|A| <= 0",
            value=f"max dim|A| = {max_dim1}",
            holds=max_dim1 is not None and max_dim1 <= 0,
        )
    )

    seven = _series_classes([c for c in candidates if c.q == 7 and c.dim(1) >= 1])
    out.append(
        Fact(
            name="index-seven-moving-A",
            statement="exactly one series class with q = 7 in the survey degree range has dim|A| >= 1",
            value=", ".join(sorted(_class_label(k) for k in seven)) or "none",
            holds=len(seven) == 1,
        )
    )

    singular = [c for c in candidates if c.q >= 4 and c.basket]
    max_dim_singular = max((c.dim(1) for c in singular), default=None)
    out.append(
        Fact(
            name="singular-moving-A-bound",
            statement="every candidate with q >= 4 and nonempty basket in the survey degree range has dim|A| <= 2",
            value=f"max dim|A| = {max_dim_singular}",
            holds=max_dim_singular is not None and max_dim_singular <= 2,
        )
    )

    big = _series_classes([c for c in candidates if c.q >= 5 and c.dim(1) >= 2])
    out.append(
        Fact(
            name="very-moving-A-boundary",
            statement="exactly one series class with q >= 5 in the survey degree range has dim|A| >= 2",
            value=", ".join(sorted(_class_label(k) for k in big)) or "none",
            holds=len(big) == 1,
        )
    )

    boundary = [c for c in candidates if c.minus_k3 == DEGREE_CAP]
    moving = [c for c in boundary if c.dim(1) >= 2]
    out.append(
        Fact(
            name="degree-boundary",
            statement=(
                "-K^3 = 125/2 is attained, and among the boundary candidates "
                "only the one with basket (2) has dim|A| >= 2"
            ),
            value=", ".join(c.id for c in boundary) or "none",
            holds=bool(boundary)
            and [(c.q, c.basket, c.a3) for c in moving] == [DEGREE_CAP_EXCEPTION],
        )
    )
    return out


def filter_diff(
    q: int, flag: str, config: FilterConfig = DEFAULT_CONFIG, jobs: int = 1
) -> tuple[list[Candidate], list[Candidate]]:
    """Effect of toggling one boolean filter flag on the index-q candidates.

    Returns ``(removed, added)`` relative to ``config``: candidates that
    disappear / appear when ``flag`` is flipped.  Backs the ``diff`` command
    demanded by the count-calibration protocol.
    """
    if flag not in FILTER_FLAGS:
        raise ValueError(f"unknown filter flag {flag!r}; choose from {FILTER_FLAGS}")
    flipped = replace(config, **{flag: not getattr(config, flag)})
    base = {c.id: c for c in enumerate_candidates(q, config, jobs)}
    other = {c.id: c for c in enumerate_candidates(q, flipped, jobs)}
    removed = [c for cid, c in base.items() if cid not in other]
    added = [c for cid, c in other.items() if cid not in base]
    removed.sort(key=Candidate.sort_key)
    added.sort(key=Candidate.sort_key)
    return removed, added
