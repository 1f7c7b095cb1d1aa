"""Exhaustive enumeration of numerical Fano threefold candidates.

A candidate is a triple ``(q, basket, A^3)`` that survives every numerical
test an actual Fano threefold of index ``q`` would have to pass:

* each basket index coprime to ``q`` and Kawamata sum ``sigma < 24``;
* the Bogomolov-Miyaoka inequality ``(4q-3) q^3 A^3 <= 4 q^2 (24 - sigma)``;
* optionally the degree cap ``-K^3 = q^3 A^3 <= 125/2``;
* ``chi(k)`` integral over a full period, zero on ``-q < k < 0``, and
  non-negative for ``k >= 0``.

:func:`degree_candidates` is the one place that decides the degree range,
in integers only.  The sieve is one generator, :func:`_passing_numerators`,
over a rescaled integer kernel: it tests ``T(k) = 12 q N chi(k)`` with
machine integers, from the terms of :mod:`qfano.riemann_roch`, and drops a
degree at its first failing ``k``; the test suite cross-checks it against
``_reference_chi``, a rational transcription of the formula, and against a
per-``k`` evaluation of ``T(k)``, both kept in the tests.  Three facts keep
the work small:

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
* **The one-period lemma.**  Write ``T(k) = P(k) + q W(k)`` with
  ``P(k) = 12qN + q n k(k+q)(2k+q) + k C`` and ``C = 24N - N sigma``.
  ``W`` is periodic mod ``N``, so ``D1(k) = P(k+N) - P(k)`` and
  ``D2(k) = P(k+2N) - 2 P(k+N) + P(k)`` equal ``T(k+N) - T(k)`` and the
  second difference of ``T`` with step ``N``, and hold no ``W``.

  - *Integrality.*  On each residue class ``k = k0 + tN`` the value ``T``
    is a cubic in ``t`` whose third difference ``12 q n N^3`` is a multiple
    of ``M = 12qN``.  So by Newton's forward differences ``T = 0 (mod M)``
    at every ``k >= 0`` exactly when it holds on ``[0, 3N)``: on ``[0, N)``,
    with ``D1 = D2 = 0 (mod M)`` on ``[0, N)``.  Since ``D1(k+N) = D1(k) +
    D2(k)`` and ``D2(k+N) = D2(k) + 12qnN^3``, that last condition says
    ``D1 = 0 (mod M)`` at every ``k >= 0``.  ``D1`` is quadratic, so this
    holds exactly when its Newton coefficients at ``k = 0`` are multiples
    of ``M``: ``D1(0) = N (qn(2N^2 + 3qN + q^2) + C)``, ``Delta D1(0) =
    6qnN(N + q + 1)`` and ``Delta^2 D1(0) = 12qnN``, the last always.  So
    ``T`` is integral at every ``k >= 0`` exactly when it is on ``[1, N)``
    (``T(0) = 12qN``) and two congruences hold
    (:func:`_one_period_suffices`): ``qn(2N^2 + 3qN + q^2) + C = 0
    (mod 12q)`` and ``n(N + q + 1)`` even.  (``D2(0) = 6qnN^2(2N + q)``,
    whose congruence is ``qnN`` even, follows from the second.)
  - *Non-negativity.*  Each point term ``w_p = 12 r c_p`` is at least
    ``-(r-1)(r^2-1) > -r^3``, so ``q W(k) >= -qN sum r^2``.  With
    ``n >= 1``, ``C > 0`` and ``k(k+q)(2k+q) >= 2k^3`` that gives
    ``T(k) >= 12qN + 2qk^3 - qN sum r^2``, and ``sigma < 24`` bounds
    ``sum r^2`` twice.  Each ``r - 1/r >= 3r/4``, so ``sum r < 32``, and
    each ``r <= N``, so ``sum r^2 <= 32N``: ``T(k) > 0`` for ``k >= 3N``
    (``54N^3 > 32N^2``).  Every index is at most 24, a point of index
    ``r <= 23`` has ``r^2 <= 24 (r - 1/r)``, and a point of index 24
    (``sigma = 575/24``) fits only alone: so ``sum r^2 <= 576``, and
    ``T(k) >= 2q(k^3 - 282N) > 0`` for ``k >= max(N, 17)``
    (``17^2 > 282``).

  So the scan of one degree checks the two congruences and runs over
  ``1 <= k < min(3N, max(N, 17))`` (:func:`_scan_stop`).
  :func:`enumerate_baskets` yields only baskets with ``sigma < 24``.

Two more keep the per-basket work flat:

* **One walk, a sum carried down it.**  :func:`enumerate_baskets` walks
  several indices' basket trees as one, each index's baskets in depth-first
  preorder: a basket of ``d`` points is that index's last basket of
  ``d - 1`` points plus one.  :func:`_scan_share` keeps per index one sum
  per depth, ``S = sum_p (L/r) share_p`` in units of ``1/L`` (``L`` =
  :data:`_SIGMA_UNIT`), and reads the constant of ``T(k)`` as ``(12q + 24k)
  N + S / (L/N)``: one table lookup per ``(q, basket)``, not one per point.
* **Forward differences.**  Past the vanishing window,
  :func:`_passing_numerators` reads ``q W(k)`` from one table of a period
  ``N``, built once per basket and cycled to the end of the scan, and
  steps the rest of ``T(k)``, a cubic in ``k`` with third difference
  ``12qn``, by forward differences: a few additions per ``k`` instead of
  one term per point.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from collections import namedtuple
from itertools import cycle, groupby, islice
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

#: Prokhorov's bound on ``-K^3 = q^3 A^3`` for non-Gorenstein Q-Fano
#: threefolds, attained only by the quadric cone.  The numerics alone do not
#: enforce it: the default set keeps 8 candidates above it, P^3
#: (``q4-smooth-a1.1``, empty basket) among them.
DEGREE_CAP = Rational(125, 2)

#: The one triple ``(q, basket, A^3)`` kept at the cap with equality.
DEGREE_CAP_EXCEPTION: tuple[int, Basket, Rational] = (
    5,
    Basket((SingularPoint(2, 1),)),
    Rational(1, 2),
)


def in_survey_range(c: Candidate) -> bool:
    """Whether ``c`` lies in the survey degree range ``-K^3 <= 125/2``
    (equality admitted): the rows the survey tables and :func:`facts` cover."""
    return c.minus_k3 <= DEGREE_CAP


class FilterConfig(
    namedtuple(
        "FilterConfig",
        "degree_cap_enforced enforce_vanishing bm_inequality nonnegativity",
        defaults=(False, True, True, True),
    )
):
    """Switches for the candidate filters; ``qfano diff`` shows each one's effect.

    A named tuple of four booleans, in the order of :data:`FILTER_FLAGS`;
    ``config._replace(flag=value)`` is the config with one switch changed.
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
    ``nonnegativity`` removes nothing in either set, but it acts off them:
    with ``enforce_vanishing`` off it removes 5, 3, 4, 1 and 2 candidates at
    q = 3 to 7, and under the cap with ``bm_inequality`` off 2 at q = 3.
    """

    __slots__ = ()


DEFAULT_CONFIG = FilterConfig()

#: Named configurations selectable from the command line.
FILTER_SETS: dict[str, FilterConfig] = {
    "default": DEFAULT_CONFIG,
    "capped": FilterConfig(degree_cap_enforced=True),
}

#: Boolean FilterConfig fields whose individual effect `qfano diff` reports.
FILTER_FLAGS = FilterConfig._fields


class Candidate(
    namedtuple("Candidate", "q basket a3 sigma minus_k3 minus_k_c2 dims genus id")
):
    """One enumerated numerical candidate with its derived invariants.

    ``(q, basket, a3)`` with ``sigma``, ``-K^3`` and ``-K.c2`` (Rationals),
    ``dims`` (``dim |kA|`` for k = 1..q), ``genus`` and the text ``id``.
    """

    __slots__ = ()

    @classmethod
    def from_parts(cls, q: int, basket: Basket, a3: Rational) -> "Candidate":
        fano = FanoInput(q, basket, a3)
        _, n_lcm, sigma_scaled = basket
        a3_num, a3_den = a3.as_integer_ratio()
        # built in field order; genus repeats chi(q), which dims already
        # holds: the benchmark's self-tests pin chi at q + 1 calls per candidate
        return tuple.__new__(cls, (
            q, basket, a3, kawamata_sum(basket),
            Rational(q**3 * a3_num, a3_den), Rational(24 * n_lcm - sigma_scaled, n_lcm),
            tuple(dims(fano, q)), genus(fano), candidate_id(q, basket, a3),
        ))

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


def candidate_id(q: int, basket: Basket, a3: Rational) -> str:
    """Stable text id derived from the candidate content only."""
    points = basket.points
    pts = "_".join(["%d.%d" % p for p in points]) if points else "smooth"
    return "q%d-%s-a%d.%d" % (q, pts, *a3.as_integer_ratio())


def indices_text(basket: Basket) -> str:
    """The basket's indices as the tables print them, e.g. ``(2,3)``."""
    return "(" + ",".join(str(r) for r in basket.indices) + ")"


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


def enumerate_baskets(indices: Sequence[int]) -> Iterator[tuple[int, Basket]]:
    """Yield ``(q, basket)`` for each ``q`` in ``indices`` and basket of ``q``.

    A basket of ``q`` has indices coprime to ``q`` and ``sigma < 24``.  One
    walk of the union of the indices' point domains builds each basket once;
    each ``q`` gets its baskets once each in canonical order, from the empty
    one.  A node carries its points, lcm ``N`` and sigma budget ``b`` in
    units of ``1/L`` (:data:`_SIGMA_UNIT`): ``N sigma = (24L - b) / (L/N)``.
    """
    domain = sorted({p for q in indices for p in point_domain(q)})
    full = 24 * _SIGMA_UNIT
    # the sentinel ends every search: no budget exceeds it
    sigmas = [scaled_kawamata_sum((p,), _SIGMA_UNIT) for p in domain] + [full]
    admitted: dict[int, tuple[int, ...]] = {}  # N -> the indices coprime to it
    make, gcd, lcm, fits = Basket._from_sorted, math.gcd, math.lcm, bisect.bisect_left
    # depth-first, children pushed last-first so they pop in order; a node
    # is (first domain index it may add, points, N, budget)
    stack = [(0, (), 1, full)]
    pop, push = stack.pop, stack.append
    while stack:
        start, points, n_lcm, budget = pop()
        qs = admitted.get(n_lcm)
        if qs is None:
            qs = admitted[n_lcm] = tuple(q for q in indices if gcd(q, n_lcm) == 1)
        if not qs:  # nor to any multiple of N: nothing below is admitted
            continue
        basket = make(points, n_lcm, (full - budget) // (_SIGMA_UNIT // n_lcm))
        for q in qs:
            yield q, basket
        # sigma is non-decreasing along the domain, so the points that still
        # fit are a prefix of domain[start:]; at most nodes, a leaf, none does
        if sigmas[start] < budget:
            for idx in range(fits(sigmas, budget, start) - 1, start - 1, -1):
                p = domain[idx]
                push((idx, points + (p,), lcm(n_lcm, p.r), budget - sigmas[idx]))


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
    Without the cap the BM range is returned at once: it is the whole answer
    there, whatever ``bm_inequality`` says.
    """
    n_lcm = basket.index_lcm
    bm = 4 * (24 * n_lcm - basket.sigma_scaled) // ((4 * q - 3) * q)
    if not config.degree_cap_enforced:
        return range(1, bm + 1)
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
    if config.bm_inequality:
        n_cap = min(n_cap, bm)
    return range(1, n_cap + 1)


def _point_terms(q: int, k: int) -> dict[SingularPoint, int]:
    """Each point's share ``q w_p(k) - k(r^2 - 1)`` of ``T(k)``, by point.

    ``w_p = 12 r c_p`` (:func:`~qfano.riemann_roch.local_terms`); a basket's
    ``T(k)`` is ``(12q + 24k) N + q n k(k+q)(2k+q)`` plus ``N/r`` times the
    share of each of its points.  The enumeration uses ``k = -1`` (the
    closed-form degree) and ``k = 1`` (the residue class of the walk).
    """
    return {
        p: q * local_terms(q, p.r, p.a)[k % p.r] - k * (p.r * p.r - 1)
        for p in point_domain(q)
    }


def _columns(q: int, basket: Basket) -> list[tuple[int, tuple[int, ...]]]:
    """``(r, column)`` per distinct point: its share of ``q W(k)`` by ``k mod r``, all copies."""
    n_lcm = basket.index_lcm
    columns = []
    # the points are sorted, so the copies of a point are one run
    for p, run in groupby(basket.points):
        weight = q * sum(1 for _ in run) * (n_lcm // p.r)
        columns.append((p.r, tuple(weight * t for t in local_terms(q, p.r, p.a))))
    return columns


def _vanishes(q: int, n: int, basket: Basket, columns: list[tuple[int, tuple[int, ...]]]) -> bool:
    """Whether ``T(k) = 0`` at ``A^3 = n/N`` for every ``k`` in the window ``-q < k < 0``."""
    n_lcm, qn = basket.index_lcm, q * n
    linear = 24 * n_lcm - basket.sigma_scaled
    return not any(
        12 * q * n_lcm + qn * k * (k + q) * (2 * k + q) + k * linear
        + sum(column[k % r] for r, column in columns)
        for k in range(1 - q, 0)
    )


def _scan_stop(n_lcm: int) -> int:
    """The ``k`` the scan of a degree stops before: ``min(3N, max(N, 17))``.

    From there on ``T(k) > 0``, and integrality on ``[1, N)`` with
    :func:`_one_period_suffices` settles the rest (module docstring).
    """
    return min(3 * n_lcm, max(n_lcm, 17))


def _one_period_suffices(q: int, n_lcm: int, n: int, linear: int) -> bool:
    """Whether ``T(k+N) - T(k)`` is a multiple of ``12qN`` at every ``k``.

    ``linear`` is ``24N - N sigma``.  Then ``T`` is integral at every
    ``k >= 0`` as soon as it is on ``[0, N)``: the two congruences of the
    one-period lemma (module docstring).
    """
    return not n * (n_lcm + q + 1) % 2 and not (
        q * n * (2 * n_lcm * n_lcm + 3 * q * n_lcm + q * q) + linear
    ) % (12 * q)


def _passing_numerators(
    q: int, basket: Basket, numerators: Iterable[int], config: FilterConfig
) -> Iterator[int]:
    """Yield each ``n`` in ``numerators`` whose degree ``A^3 = n/N`` passes the battery.

    With ``N`` the lcm of the basket indices, every term of ``12 q N chi(k)``
    is an integer:

        T(k) = 12qN + q n k(k+q)(2k+q) + k (24N - N sigma) + q W(k)

    where ``W(k) = 12 N sum_p c_p(k)`` is periodic mod ``N`` and is built
    from the per-point tables :func:`~qfano.riemann_roch.local_terms`,
    indexed by ``k mod r``.  ``chi(k)`` is integral iff ``T(k) % 12qN == 0``,
    and signs and zeros transfer directly.  The vanishing window
    ``-q < k < 0`` (:func:`_vanishes`) reads each point's column at
    ``k mod r``.  Past it, ``q W`` is read from one table of a period ``N``,
    built once per basket by the first degree that gets that far, and the
    rest of ``T(k)``, a cubic in ``k``, steps by forward differences (third
    difference ``12qn``).  A degree stops at the first ``k`` that fails, and
    at ``min(3N, max(N, 17))``; :func:`_one_period_suffices`, checked
    first, stands in for the rest of ``[N, 3N)`` (the one-period lemma,
    module docstring).  The lemma needs ``sigma < 24``: the basket must be
    one that :func:`enumerate_baskets` yields for ``q``.
    """
    n_lcm = basket.index_lcm
    modulus = 12 * q * n_lcm
    linear = 24 * n_lcm - basket.sigma_scaled
    columns = _columns(q, basket)
    nonnegativity = config.nonnegativity
    stop = _scan_stop(n_lcm)
    period = None
    for n in numerators:
        if not _one_period_suffices(q, n_lcm, n, linear):
            continue
        if config.enforce_vanishing and not _vanishes(q, n, basket, columns):
            continue
        qn = q * n
        if period is None:
            tiled = [column * (n_lcm // r) for r, column in columns]
            period = list(map(sum, zip(*tiled))) if tiled else [0]
        # P(1) and its first, second and third differences at k = 1
        value = modulus + qn * (q + 1) * (q + 2) + linear
        step = qn * (q + 2) * (q + 7) + linear
        step2 = 6 * qn * (q + 4)
        step3 = 12 * qn
        for w in islice(cycle(period), 1, stop):
            total = value + w
            if total % modulus or (total < 0 and nonnegativity):
                break
            value += step
            step += step2
            step2 += step3
        else:
            yield n


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


def _scan_share(share: Sequence[int], config: FilterConfig) -> list[Candidate]:
    """Every candidate of the indices in ``share``: one walk of their baskets."""
    setups = {}
    for q in share:
        # with vanishing on, chi(-1) = 0 fixes the degree when its coefficient
        # q(q-1)(q-2) is nonzero; otherwise chi(1) integral confines the walk
        # to one residue class (module docstring)
        k = -1 if config.enforce_vanishing and q * (q - 1) * (q - 2) else 1
        # each point's share of T(k) in units of 1/_SIGMA_UNIT; sums[d] sums
        # those of q's last basket of d points (at most 15: sigma(r) >= 3/2)
        shares = {p: (_SIGMA_UNIT // p.r) * term for p, term in _point_terms(q, k).items()}
        setups[q] = (k, q * k * (k + q) * (2 * k + q), 12 * q + 24 * k, shares, [0] * 16)
    found, last = [], None
    for q, basket in enumerate_baskets(share):
        if q != last:
            k, coeff, base, shares, sums = setups[q]
            last = q
        points = basket.points
        depth = len(points)
        if depth:
            sums[depth] = sums[depth - 1] + shares[points[-1]]
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
        for n in _passing_numerators(q, basket, numerators, config):
            found.append(Candidate.from_parts(q, basket, Rational(n, n_lcm)))
    return found


def _fork_scan(share: Sequence[int], config: FilterConfig, cpu: int) -> tuple[int, int]:
    """Fork a child that scans ``share`` pinned to ``cpu``; return its pid and pipe.

    The child writes to the pipe one pickled pair: the list of candidates
    and ``None``, or the exception the scan raised and its traceback text.
    It leaves only through ``os._exit``: it never returns into its caller's
    code.  The caller gets the read end.  Like any fork, this expects a
    caller with no other threads (:func:`enumerate_candidates` checks).
    """
    import pickle

    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        os.sched_setaffinity(0, (cpu,))
        try:
            reply = (_scan_share(share, config), None)
        except Exception as exc:
            import traceback

            reply = (exc, traceback.format_exc())
        with open(write, "wb") as pipe:
            pickle.dump(reply, pipe)
        status = 0
    finally:
        os._exit(status)


def _scan_shares(
    shares: Sequence[Sequence[int]], config: FilterConfig, cpus: Sequence[int]
) -> list[list[Candidate]]:
    """The candidates of each share: the first scanned here, each other in a forked child.

    The child of share ``i`` (``i >= 1``) pins itself to CPU ``cpus[i - 1]``;
    this process scans share 0 under its mask as it is.  It then reads every
    child's pipe, reaps every child and re-raises the first exception a child
    sent, from a ``RuntimeError`` that holds the child's traceback.  On any
    error of its own it kills and reaps its children first, so none is left
    running.
    """
    # imported here, not at the top: only a forked scan uses them, and every
    # command would pay for them at start-up
    import pickle
    import signal

    children: list[tuple[int, int]] = []  # (pid, read end) of each unreaped child
    try:
        for cpu, share in zip(cpus, shares[1:]):
            children.append(_fork_scan(share, config, cpu))
        per_share = [_scan_share(shares[0], config)]
        replies = []  # (payload, wait status) per child
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            replies.append((payload, os.waitpid(pid, 0)[1]))
            del children[0]
            os.close(read)
    finally:
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    for share, (payload, status) in zip(shares[1:], replies):
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"the scan of q in {share} exited with code {code}")
        result, trace = pickle.loads(payload)
        if trace is not None:
            raise result from RuntimeError(f"in the scan of q in {share}:\n{trace}")
        per_share.append(result)
    return per_share


def canonical_order(c: Candidate) -> tuple:
    """Index, then degree descending, then basket, as one tuple of integers:
    the order the enumeration sorts its result in and a load checks.

    An enumerated degree is ``n/N`` with ``N`` dividing :data:`_SIGMA_UNIT`,
    so ``A^3 * _SIGMA_UNIT`` is an integer.
    """
    num, den = c.a3.as_integer_ratio()
    return c.q, -num * (_SIGMA_UNIT // den), c.basket.points


def enumerate_candidates(
    q: int | Iterable[int], config: FilterConfig = DEFAULT_CONFIG, jobs: int = 1
) -> list[Candidate]:
    """All candidates of index ``q`` (or of every index in ``q``), canonically sorted.

    ``jobs > 1`` splits the indices into contiguous shares of near-equal
    length, one per worker, with no more workers than ``jobs``, than
    indices, or than CPUs in this process's affinity mask.  This process
    scans the first share under its mask as it is, and one forked child scans
    each other share (:func:`_scan_shares`), pinned to its own CPU of the
    mask, the first one excepted.  A forked child starts on its parent's CPU,
    and unpinned the two often stay there while the other CPU idles, so the
    split does not pay.  So where the OS has no ``sched_setaffinity``,
    and for one CPU or one index, the scan runs here alone.  (An index is
    not split: every part would walk the index's whole basket tree again.)
    A caller with a live thread also scans here alone: a fork beside it
    could copy a lock that thread holds.  The result is merged and sorted,
    so it is byte-for-byte independent of ``jobs``.
    """
    indices = (q,) if isinstance(q, int) else tuple(q)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    workers = min(jobs, len(cpus), len(indices)) if threading.active_count() == 1 else 1
    if workers > 1:
        size = len(indices)
        shares = [
            indices[i * size // workers:(i + 1) * size // workers] for i in range(workers)
        ]
        per_share = _scan_shares(shares, config, cpus[1:workers])
    else:
        per_share = [_scan_share(indices, config)]
    return sorted((c for part in per_share for c in part), key=canonical_order)


#: A machine-checked statement about the candidate database.
Fact = namedtuple("Fact", "name statement value holds")


def _label(c: Candidate) -> str:
    return f"q={c.q} {indices_text(c.basket)} A3={format_rational(c.a3)}"


def facts(candidates: Sequence[Candidate]) -> list[Fact]:
    """Derive the headline structural facts from an enumerated database.

    The statements quantify over the ambient degree range ``-K^3 <= 125/2``
    (equality admitted) — the range the survey tables print.  An uncapped
    database holds a handful of higher-degree candidates whose linear
    systems move more freely; they are outside every statement's scope, so
    the same facts hold whether or not the database was enumerated with the
    cap enforced.
    """
    candidates = [c for c in candidates if in_survey_range(c)]
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

    # a "series class" is what a table row shows; each is one candidate
    seven = [c for c in candidates if c.q == 7 and c.dim(1) >= 1]
    out.append(
        Fact(
            name="index-seven-moving-A",
            statement="exactly one series class with q = 7 in the survey degree range has dim|A| >= 1",
            value=", ".join(sorted(map(_label, seven))) or "none",
            holds=len(seven) == 1,
        )
    )

    singular = [c for c in candidates if c.q >= 4 and c.basket.points]
    max_dim_singular = max((c.dim(1) for c in singular), default=None)
    out.append(
        Fact(
            name="singular-moving-A-bound",
            statement="every candidate with q >= 4 and nonempty basket in the survey degree range has dim|A| <= 2",
            value=f"max dim|A| = {max_dim_singular}",
            holds=max_dim_singular is not None and max_dim_singular <= 2,
        )
    )

    big = [c for c in candidates if c.q >= 5 and c.dim(1) >= 2]
    out.append(
        Fact(
            name="very-moving-A-boundary",
            statement="exactly one series class with q >= 5 in the survey degree range has dim|A| >= 2",
            value=", ".join(sorted(map(_label, big))) or "none",
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
    q: int, flag: str, config: FilterConfig = DEFAULT_CONFIG
) -> tuple[list[Candidate], list[Candidate]]:
    """Effect of toggling one boolean filter flag on the index-q candidates.

    Returns ``(removed, added)`` relative to ``config``: candidates that
    disappear / appear when ``flag`` is flipped.  Backs the ``diff`` command
    demanded by the count-calibration protocol.

    Every flip but one is nested: the side with ``flag`` on keeps exactly the
    candidates of the side with it off that also pass the on side's checks.
    So the off side is enumerated once, and each of its candidates is
    re-checked only on the half of the battery the flag feeds, since the
    other half reads none of its flags and its verdict cannot change:

    * ``degree_cap_enforced`` and ``bm_inequality`` only narrow the range
      (under the cap, BM cuts ``cap`` to ``min(cap, BM)``, and without it
      BM bounds both sides; the cap with BM on cuts ``BM`` to
      ``min(cap, BM)``).  A candidate is kept when its numerator is in the on
      side's :func:`degree_candidates`.
    * ``enforce_vanishing`` and ``nonnegativity`` only add a check to the
      sieve.  A candidate is kept when it passes the on side's
      :func:`_passing_numerators`; for ``enforce_vanishing`` that is the
      window check :func:`_vanishes` alone, since the off side already
      passed the rest of the sieve.

    The exception is ``degree_cap_enforced`` with ``bm_inequality`` off: the
    cap-only and the BM-only ranges do not nest, so both sides are
    enumerated.
    """
    if flag not in FILTER_FLAGS:
        raise ValueError(f"unknown filter flag {flag!r}; choose from {FILTER_FLAGS}")
    looser, tighter = (config._replace(**{flag: on}) for on in (False, True))
    loose = enumerate_candidates(q, looser)
    if flag == "degree_cap_enforced" and not config.bm_inequality:
        tight = enumerate_candidates(q, tighter)
    else:
        tight = []
        for c in loose:
            basket = c.basket
            n = c.a3.numerator * (basket.index_lcm // c.a3.denominator)
            if flag in ("degree_cap_enforced", "bm_inequality"):
                kept = n in degree_candidates(q, basket, tighter)
            elif flag == "enforce_vanishing":
                kept = _vanishes(q, n, basket, _columns(q, basket))
            else:
                kept = any(_passing_numerators(q, basket, (n,), tighter))
            if kept:
                tight.append(c)
    before, after = (tight, loose) if getattr(config, flag) else (loose, tight)
    before_ids = {c.id for c in before}
    after_ids = {c.id for c in after}
    removed = [c for c in before if c.id not in after_ids]
    added = [c for c in after if c.id not in before_ids]
    return removed, added
