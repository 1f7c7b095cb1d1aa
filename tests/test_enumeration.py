import bisect
import functools
import hashlib
import itertools
import math
import os
import pickle
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from qfano import enumeration
from qfano.arith import Rational
from qfano.enumeration import (
    DEFAULT_CONFIG,
    FILTER_FLAGS,
    FILTER_SETS,
    INDEX_SET,
    Candidate,
    FilterConfig,
    candidate_id,
    degree_candidates,
    enumerate_baskets,
    enumerate_candidates,
    facts,
    filter_diff,
    point_domain,
)
from qfano.riemann_roch import (
    Basket,
    FanoInput,
    chi_integer,
    local_terms,
    scaled_kawamata_sum,
)
from qfano.store import ID_DIGESTS, config_to_json

from test_riemann_roch import _reference_chi, _reference_sigma

CAPPED = FILTER_SETS["capped"]


def test_point_domain_respects_coprimality():
    for q in INDEX_SET:
        domain = point_domain(q)
        assert all(math.gcd(p.r, q) == 1 for p in domain)
        assert all(2 <= p.r <= 24 for p in domain)
        assert domain == sorted(domain)
    # indices divisible by 3 never appear for q = 3, and the domain only
    # depends on which indices are coprime, so q = 3 and q = 9 agree
    assert all(p.r % 3 != 0 for p in point_domain(3))
    assert point_domain(3) == point_domain(9)


def _reference_walk(q):
    """Every basket of index ``q`` in canonical order: one walk of ``q``'s own tree.

    The oracle of :func:`enumerate_baskets`, which walks the union of several
    indices' trees once.
    """
    domain = point_domain(q)
    unit = enumeration._SIGMA_UNIT
    sigmas = [scaled_kawamata_sum((p,), unit) for p in domain]
    full = 24 * unit
    # depth-first, children pushed last-first so they pop in order; a node
    # is (first domain index it may add, points, N, budget)
    stack = [(0, (), 1, full)]
    while stack:
        start, points, n_lcm, budget = stack.pop()
        yield Basket._from_sorted(points, n_lcm, (full - budget) // (unit // n_lcm))
        for idx in range(bisect.bisect_left(sigmas, budget, start) - 1, start - 1, -1):
            stack.append((
                idx, points + (domain[idx],), math.lcm(n_lcm, domain[idx].r),
                budget - sigmas[idx],
            ))


def _walk(q):
    """The baskets of index ``q`` alone, in the order the walk yields them."""
    for index, basket in enumerate_baskets((q,)):
        assert index == q
        yield basket


#: Shares the one walk is checked on: the ``--jobs 2`` halves, indices with
#: one tree between them, and (2, 3), whose basket (2, 3) neither admits.
WALK_SHARES = [
    INDEX_SET, INDEX_SET[:6], INDEX_SET[6:], (3, 9), (4, 8), (2, 3),
    *((q,) for q in INDEX_SET),
]


@pytest.mark.parametrize("share", WALK_SHARES, ids=str)
def test_one_walk_yields_each_index_walk(share):
    pairs = list(enumerate_baskets(share))
    for q in share:
        assert [basket for index, basket in pairs if index == q] == list(_reference_walk(q))
    assert {index for index, _ in pairs} == set(share)
    if share == INDEX_SET:
        # each node is built once and shared by every index that admits it
        assert len(pairs) == 49587
        assert len({id(basket) for _, basket in pairs}) == 8314


def test_enumerate_baskets_basics():
    baskets = list(_walk(5))
    assert baskets[0] == Basket()
    assert len(set(baskets)) == len(baskets)
    # sigma < 24 throughout
    assert all(_reference_sigma(b) < 24 for b in baskets)
    # index 24 fits alone (sigma = 575/24) but together with nothing else
    with_24 = {b for b in baskets if 24 in b.indices}
    assert with_24 == {Basket.from_pairs([(24, a)]) for a in (1, 5, 7, 11)}


def test_enumerate_baskets_count_frozen():
    count3 = sum(1 for _ in _walk(3))
    assert count3 == 2813
    assert sum(1 for _ in _walk(9)) == count3


@pytest.mark.parametrize("q", INDEX_SET)
def test_walk_matches_the_public_constructor(q):
    # the walk builds baskets without sorting or summing, and writes their
    # slots directly; the public constructor (here fed the points reversed)
    # does both the usual way
    previous = None
    for basket in _walk(q):
        rebuilt = Basket(basket.points[::-1])
        assert basket == rebuilt
        assert hash(basket) == hash(rebuilt)
        assert basket <= rebuilt <= basket
        assert basket.index_lcm == rebuilt.index_lcm
        assert basket.sigma_scaled == rebuilt.sigma_scaled
        assert basket.sigma_scaled == scaled_kawamata_sum(basket.points, basket.index_lcm)
        # sigma < 24: the precondition of the sieve's one-period lemma
        assert basket.sigma_scaled < 24 * basket.index_lcm
        assert previous is None or previous < basket and previous < rebuilt
        for name in ("points", "index_lcm", "sigma_scaled"):
            with pytest.raises(AttributeError):
                setattr(basket, name, getattr(rebuilt, name))
        previous = basket


def test_candidate_survives_pickling():
    for c in enumerate_candidates(5)[:3]:
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and type(copy) is Candidate and type(copy.basket) is Basket
        assert copy.basket.index_lcm == c.basket.index_lcm and sort_key(copy) == sort_key(c)
        assert repr(copy) == repr(c)


def test_filter_flags_are_the_config_fields_in_snapshot_order():
    assert FilterConfig._fields == FILTER_FLAGS
    snapshot = list(config_to_json(DEFAULT_CONFIG))
    assert [key for key in snapshot if key in FILTER_FLAGS] == list(FILTER_FLAGS)
    assert FilterConfig() == DEFAULT_CONFIG
    assert tuple(DEFAULT_CONFIG) == (False, True, True, True)
    with pytest.raises(AttributeError):
        DEFAULT_CONFIG.bm_inequality = False


def test_q19_basket_present():
    target = Basket.from_pairs([(3, 1), (4, 1), (5, 2), (7, 3)])
    assert target in set(_walk(19))


def _degrees(q, basket, config):
    """The degrees ``A^3 = n/N`` that the numerators of degree_candidates stand for."""
    return [Rational(n, basket.index_lcm) for n in degree_candidates(q, basket, config)]


def test_degree_candidates_capped_examples():
    basket = Basket.from_pairs([(2, 1), (4, 1), (5, 2)])
    assert degree_candidates(9, basket, CAPPED) == range(1, 2)
    assert _degrees(9, basket, CAPPED) == [Rational(1, 20)]
    two = Basket.from_pairs([(2, 1)])
    assert degree_candidates(5, two, CAPPED) == range(1, 2)
    assert _degrees(5, two, CAPPED) == [Rational(1, 2)]
    basket = Basket.from_pairs([(4, 1), (5, 1)])
    numerators = degree_candidates(3, basket, CAPPED)
    # the cap alone allows n <= 46 (of N = 20); BM binds first, at n <= 45
    assert numerators == range(1, 46)
    values = _degrees(3, basket, CAPPED)
    assert len(values) == 45
    assert values[0] == Rational(1, 20)
    assert values == sorted(values)


def test_degree_candidates_cap_equality():
    # the boundary -K^3 = 125/2 is dropped at the cap except for basket (2):
    # A^3 = 1/2 is n = 1 of N = 2 there and n = 3 of N = 6 for (2,2,3,6)
    two = Basket.from_pairs([(2, 1)])
    assert two.index_lcm == 2
    assert 1 in degree_candidates(5, two, CAPPED)
    other = Basket.from_pairs([(2, 1), (2, 1), (3, 1), (6, 1)])
    assert other.index_lcm == 6
    assert 3 not in degree_candidates(5, other, CAPPED)
    assert Rational(1, 2) not in _degrees(5, other, CAPPED)
    # the calibrated default keeps both and runs to the BM bound instead
    assert degree_candidates(5, two, DEFAULT_CONFIG) == range(1, 3)
    assert _degrees(5, two, DEFAULT_CONFIG) == [Rational(1, 2), Rational(1)]
    assert 3 in degree_candidates(5, other, DEFAULT_CONFIG)


def _reference_degree_range(q, basket, config):
    # degree_candidates as it was written with a Fraction-tuple comparison
    # against the cap exception
    n_lcm = basket.index_lcm
    room = 24 * n_lcm - basket.sigma_scaled
    bounds = []
    if config.bm_inequality or not config.degree_cap_enforced:
        bounds.append(4 * room // ((4 * q - 3) * q))
    if config.degree_cap_enforced:
        cap_num = enumeration.DEGREE_CAP.numerator * n_lcm
        cap_den = enumeration.DEGREE_CAP.denominator * q**3
        n_cap = cap_num // cap_den
        if cap_num % cap_den == 0 and (
            (q, basket, Rational(n_cap, n_lcm)) != enumeration.DEGREE_CAP_EXCEPTION
        ):
            n_cap -= 1
        bounds.append(n_cap)
    return range(1, min(bounds) + 1)


# the exception, then stand-ins that differ from it in the degree alone and
# in the basket alone, so each of the three comparisons has to hold
CAP_EXCEPTIONS = {
    "real": enumeration.DEGREE_CAP_EXCEPTION,
    "off-cap-degree": (5, Basket.from_pairs([(2, 1)]), Rational(1, 4)),
    "other-basket": (5, Basket.from_pairs([(4, 1)]), Rational(1, 2)),
}


@pytest.mark.parametrize("bm", [True, False])
@pytest.mark.parametrize("exception", sorted(CAP_EXCEPTIONS))
def test_capped_degree_range_matches_the_fraction_rule(bm, exception, monkeypatch):
    # q = 5 is the exception's index: every even-N basket meets the cap at
    # n = N/2, and only the exception's basket keeps that degree
    monkeypatch.setattr(enumeration, "DEGREE_CAP_EXCEPTION", CAP_EXCEPTIONS[exception])
    config = CAPPED._replace(bm_inequality=bm)
    at_cap = 0
    for basket in _walk(5):
        got = degree_candidates(5, basket, config)
        assert got == _reference_degree_range(5, basket, config)
        at_cap += basket.index_lcm % 2 == 0
    assert at_cap > 1000
    two = Basket.from_pairs([(2, 1)])
    assert (1 in degree_candidates(5, two, config)) == (exception == "real")
    assert 1 not in degree_candidates(5, Basket.from_pairs([(2, 1), (2, 1)]), config)


def test_uncapped_degree_range_is_the_bm_range():
    # without the cap the range is Bogomolov-Miyaoka's whatever bm_inequality
    # says: n <= 4 (24N - N sigma) / ((4q - 3) q), from a sigma in rationals
    configs = [DEFAULT_CONFIG._replace(bm_inequality=bm) for bm in (True, False)]
    for q in INDEX_SET:
        for basket in _walk(q):
            n_lcm = math.lcm(*basket.indices)
            n_sigma = n_lcm * _reference_sigma(basket)
            assert n_sigma.denominator == 1
            bound = 4 * (24 * n_lcm - n_sigma.numerator) // ((4 * q - 3) * q)
            for config in configs:
                assert degree_candidates(q, basket, config) == range(1, bound + 1)


def test_degree_candidates_bm_bound():
    # BM for q = 5, basket (2): 17 * 5 * n <= 4 * (48 - 3), so n <= 2
    two = Basket.from_pairs([(2, 1)])
    no_bm_two = DEFAULT_CONFIG._replace(bm_inequality=False)
    assert degree_candidates(5, two, no_bm_two) == range(1, 3)
    assert _degrees(5, two, no_bm_two) == [Rational(1, 2), Rational(1)]
    basket = Basket.from_pairs([(4, 1), (5, 1)])
    no_bm = CAPPED._replace(bm_inequality=False)
    assert len(degree_candidates(3, basket, no_bm)) == 46
    assert degree_candidates(3, basket, CAPPED) == degree_candidates(3, basket, no_bm)[:45]
    # sigma >= 24 leaves no room for any degree under BM
    heavy = Basket.from_pairs([(23, 1), (23, 1)])
    assert len(degree_candidates(3, heavy, DEFAULT_CONFIG)) == 0
    assert len(degree_candidates(3, heavy, CAPPED)) == 0


#: Candidates that turning ``bm_inequality`` off adds under ``capped``, by index
#: (none at the indices not listed).
BM_OFF_ADDS_UNDER_CAP = {3: 596, 4: 220, 5: 66, 6: 9, 7: 12, 9: 1}


def test_filter_diff_bm_inequality():
    # the README's claims, at every index: the uncapped walk is bounded by BM
    # whatever the flag says, and nonnegativity changes nothing in either set
    for q in INDEX_SET:
        assert filter_diff(q, "bm_inequality") == ([], [])
        removed, added = filter_diff(q, "bm_inequality", CAPPED)
        assert removed == []
        assert len(added) == BM_OFF_ADDS_UNDER_CAP.get(q, 0)
        for config in (DEFAULT_CONFIG, CAPPED):
            assert filter_diff(q, "nonnegativity", config) == ([], [])


def _t_scaled(q, basket, k, n):
    """``T(k) = 12 q N chi(k)`` for ``A^3 = n/N`` as a plain integer, one term per point."""
    n_lcm = basket.index_lcm
    value = (
        12 * q * n_lcm
        + q * n * k * (k + q) * (2 * k + q)
        + k * (24 * n_lcm - basket.sigma_scaled)
    )
    for p in basket.points:
        value += q * (n_lcm // p.r) * local_terms(q, p.r, p.a)[k % p.r]
    return value


def _config(enforce_vanishing=True, nonnegativity=True):
    return DEFAULT_CONFIG._replace(
        enforce_vanishing=enforce_vanishing, nonnegativity=nonnegativity
    )


def _passes_integrality(fano, *, enforce_vanishing=True, nonnegativity=True):
    """The enumeration's sieve on one triple: ``_passing_numerators`` at ``A^3``.

    Decides ``chi(k) = 0`` on ``-q < k < 0``, and integrality (plus optional
    non-negativity) for ``0 <= k < min(3N, max(N, 17))`` and two
    congruences, which by the one-period lemma settles every ``k >= 0`` when
    ``sigma < 24``.  Its oracle is ``_reference_passes``, which runs
    ``_reference_chi`` over a whole period and past ``3N``.
    """
    n_lcm = fano.basket.index_lcm
    if n_lcm % fano.a3.denominator != 0:
        return False
    n = fano.a3.numerator * (n_lcm // fano.a3.denominator)
    config = _config(enforce_vanishing, nonnegativity)
    return list(enumeration._passing_numerators(fano.q, fano.basket, (n,), config)) == [n]


def _reference_scan(q, basket, n, *, enforce_vanishing=True, nonnegativity=True):
    """The sieve on ``A^3 = n/N`` as one ``_t_scaled`` call per ``k < 3N``."""
    if enforce_vanishing:
        for k in range(1 - q, 0):
            if _t_scaled(q, basket, k, n) != 0:
                return False
    n_lcm = basket.index_lcm
    for k in range(1, 3 * n_lcm):
        value = _t_scaled(q, basket, k, n)
        if value % (12 * q * n_lcm) != 0:
            return False
        if nonnegativity and value < 0:
            return False
    return True


def _scan_agrees(q, basket, numerators, verdicts=None):
    """One generator call per flag pair over ``numerators``, against the per-k loop."""
    for vanish, nonneg in itertools.product((True, False), repeat=2):
        passed = list(
            enumeration._passing_numerators(q, basket, numerators, _config(vanish, nonneg))
        )
        expected = []
        for n in numerators:
            verdict = _reference_scan(
                q, basket, n, enforce_vanishing=vanish, nonnegativity=nonneg
            )
            expected += [n] * verdict
            if verdicts is not None:
                verdicts.add((vanish, nonneg, verdict))
        assert passed == expected


def test_passes_integrality_frozen_cases():
    two = Basket.from_pairs([(2, 1)])
    assert _passes_integrality(FanoInput(q=5, basket=two, a3=Rational(1, 2)))
    assert not _passes_integrality(FanoInput(q=5, basket=two, a3=Rational(1)))
    assert _passes_integrality(FanoInput(q=4, basket=Basket(), a3=Rational(1)))
    assert not _passes_integrality(FanoInput(q=4, basket=Basket(), a3=Rational(1, 2)))


def _reference_window(fano):
    """Period of chi's fractional part: ``lcm(12 den A^3, 12 q den sigma, N)``."""
    sigma = _reference_sigma(fano.basket)
    return math.lcm(
        12 * fano.a3.denominator, 12 * fano.q * sigma.denominator, fano.basket.index_lcm
    )


def _reference_passes(fano, *, enforce_vanishing=True, nonnegativity=True):
    # pure rational-arithmetic re-statement of the sieve over a whole period
    # and up to 3N, independent of the integer kernel and of the one-period
    # lemma the production scan uses; q = 1 can have a period below 3N
    if enforce_vanishing:
        for k in range(1 - fano.q, 0):
            if _reference_chi(k, fano) != 0:
                return False
    for k in range(1, max(_reference_window(fano), 3 * fano.basket.index_lcm)):
        value = _reference_chi(k, fano)
        if value.denominator != 1:
            return False
        if nonnegativity and value < 0:
            return False
    return True


@pytest.mark.parametrize("q", [3, 5, 8])
def test_scanner_agrees_with_rational_reference(q):
    baskets = [
        Basket(),
        Basket.from_pairs([(2, 1)]) if q != 8 else Basket.from_pairs([(3, 1)]),
        Basket.from_pairs([(5, 1)]),
        Basket.from_pairs([(5, 2), (7, 1)]),
        Basket.from_pairs([(4, 1), (4, 1)]) if q != 8 else Basket.from_pairs([(9, 2)]),
    ]
    for basket in baskets:
        if any(math.gcd(p.r, q) != 1 for p in basket.points):
            continue
        n_lcm = basket.index_lcm
        for n in range(1, 3 * n_lcm + 1):
            fano = FanoInput(q=q, basket=basket, a3=Rational(n, n_lcm))
            for vanish in (True, False):
                assert _passes_integrality(
                    fano, enforce_vanishing=vanish, nonnegativity=True
                ) == _reference_passes(
                    fano, enforce_vanishing=vanish, nonnegativity=True
                )


def test_short_scan_agrees_with_rational_reference():
    # the scan stops at min(3N, max(N, 17)); the reference runs the whole
    # period and up to 3N, so random triples with periods on both sides of
    # 3N, and with N on both sides of 17, must agree
    rng = random.Random(2010)
    walked = {q: list(_walk(q)) for q in (3, 4, 5)}
    small = {q: [b for b in baskets if b.index_lcm <= 12] for q, baskets in walked.items()}
    large = {q: [b for b in baskets if 17 <= b.index_lcm <= 36] for q, baskets in walked.items()}
    triples = []
    for _ in range(40):
        q = rng.choice(sorted(small))
        basket = rng.choice(small[q])
        n_lcm = basket.index_lcm
        a3 = Rational(rng.randint(1, 3 * n_lcm), n_lcm)
        triples.append(FanoInput(q=q, basket=basket, a3=a3))
    # N >= 17, where the scan covers one period: numerators of the chi(1)
    # residue class, so that most get past k = 1
    while sum(f.basket.index_lcm >= 17 for f in triples) < 12:
        q = rng.choice(sorted(large))
        basket = rng.choice(large[q])
        n_lcm = basket.index_lcm
        solved = enumeration._residue_class(
            range(1, 3 * n_lcm + 1), _t_scaled(q, basket, 1, 0), q * (q + 1) * (q + 2),
            12 * q * n_lcm,
        )
        if solved:
            triples.append(FanoInput(q=q, basket=basket, a3=Rational(rng.choice(solved), n_lcm)))
    # sigma = 23 is whole, so for q = 1 and A^3 in Z/2 the period (12 or 24)
    # is below 3N = 36
    short = Basket.from_pairs([(3, 1)] * 3 + [(4, 1)] * 4)
    triples += [FanoInput(q=1, basket=short, a3=Rational(n, 12)) for n in range(1, 25)]
    # integral and vanishing, but chi(k) < 0 somewhere in the period
    negative = FanoInput(
        q=3, basket=Basket.from_pairs([(2, 1)] * 6 + [(5, 1), (10, 1)]), a3=Rational(1, 10)
    )
    triples.append(negative)
    assert _passes_integrality(negative, nonnegativity=False)
    assert not _passes_integrality(negative)
    spans = {_reference_window(f) > 3 * f.basket.index_lcm for f in triples}
    assert spans == {True, False}
    passed = set()
    for fano in triples:
        for vanish, nonneg in itertools.product((True, False), repeat=2):
            verdict = _passes_integrality(
                fano, enforce_vanishing=vanish, nonnegativity=nonneg
            )
            assert verdict == _reference_passes(
                fano, enforce_vanishing=vanish, nonnegativity=nonneg
            )
            if verdict:
                passed.add(fano.basket.index_lcm >= 17)
    assert passed == {True, False}


@pytest.mark.parametrize("q", [3, 4, 5, 7, 11, 13])
def test_scan_matches_the_per_k_loop(q):
    # every basket with a degree range, at its closed-form degree (the
    # enumeration's path with vanishing on), its chi(1) residue class (the
    # walk with vanishing off) and a few numerators outside both, against
    # one T(k) per k < 3N; all through one generator call per flag pair so
    # that the basket's period table is shared between them
    verdicts = set()
    closed_forms = 0
    for basket in _walk(q):
        numerators = degree_candidates(q, basket)
        if not numerators:
            continue
        solved = enumeration._residue_class(
            numerators,
            _t_scaled(q, basket, 1, 0),
            q * (q + 1) * (q + 2),
            12 * q * basket.index_lcm,
        )
        # T(-1) = T(-1)|_{n=0} - q(q-1)(q-2) n
        closed, rest = divmod(_t_scaled(q, basket, -1, 0), q * (q - 1) * (q - 2))
        closed = [closed] if not rest and closed in numerators else []
        closed_forms += len(closed)
        extra = {*numerators[:2], numerators[-1]}
        _scan_agrees(q, basket, sorted({*solved, *closed, *extra}), verdicts)
    assert closed_forms
    assert len(verdicts) == 8


def _t_cubic(q, n_lcm, n, linear, k):
    """``P(k)``, the part of ``T(k)`` outside ``q W(k)``, with ``linear = 24N - N sigma``."""
    return 12 * q * n_lcm + q * n * k * (k + q) * (2 * k + q) + k * linear


def _differences_vanish(q, n_lcm, n, linear):
    """``P(k+N) - P(k)`` and ``P(k+2N) - 2P(k+N) + P(k)`` are multiples of ``12qN`` on ``[0, N)``."""
    modulus = 12 * q * n_lcm
    p = functools.partial(_t_cubic, q, n_lcm, n, linear)
    return all(
        (p(k + n_lcm) - p(k)) % modulus == 0
        and (p(k + 2 * n_lcm) - 2 * p(k + n_lcm) + p(k)) % modulus == 0
        for k in range(n_lcm)
    )


def test_one_period_congruences_match_the_differences():
    # random integers, and walked baskets at small numerators; each of the
    # two Newton coefficients that can fail, D1(0) and D1(1) - D1(0), fails
    # alone somewhere, so neither congruence can be dropped
    rng = random.Random(25)
    cases = [
        (rng.randint(1, 25), rng.randint(1, 40), rng.randint(1, 300), rng.randint(-9999, 9999))
        for _ in range(4000)
    ]
    cases += [
        (q, b.index_lcm, n, 24 * b.index_lcm - b.sigma_scaled)
        for q in (3, 4, 7)
        for b in itertools.islice(_walk(q), 400)
        for n in range(1, 5)
    ]
    failing = set()
    for q, n_lcm, n, linear in cases:
        expected = _differences_vanish(q, n_lcm, n, linear)
        assert enumeration._one_period_suffices(q, n_lcm, n, linear) == expected
        p = functools.partial(_t_cubic, q, n_lcm, n, linear)
        modulus = 12 * q * n_lcm
        d1_0 = (p(n_lcm) - p(0)) % modulus
        d1_1 = (p(n_lcm + 1) - p(1)) % modulus
        if not expected:
            failing.add((d1_0 == 0, (d1_1 - d1_0) % modulus == 0))
    assert failing == {(True, False), (False, True), (False, False)}


#: A triple integral on ``[1, N)`` that fails at ``k = 1 + N``: q = 3,
#: basket six points 1/2(1, 1, 1), ``A^3 = 4/2`` (inside the BM range).
ONE_PERIOD_WITNESS = (3, Basket.from_pairs([(2, 1)] * 6), 4)


def test_congruences_reject_what_one_period_passes(monkeypatch):
    q, basket, n = ONE_PERIOD_WITNESS
    n_lcm = basket.index_lcm
    modulus = 12 * q * n_lcm
    assert n_lcm == 2 and n in degree_candidates(q, basket)
    assert all(_t_scaled(q, basket, k, n) % modulus == 0 for k in range(1, n_lcm))
    assert _t_scaled(q, basket, 1 + n_lcm, n) % modulus
    linear = 24 * n_lcm - basket.sigma_scaled
    assert not enumeration._one_period_suffices(q, n_lcm, n, linear)
    config = _config(enforce_vanishing=False, nonnegativity=False)
    assert list(enumeration._passing_numerators(q, basket, (n,), config)) == []
    # a scan of one period alone needs the congruences to refuse it
    monkeypatch.setattr(enumeration, "_scan_stop", lambda n_lcm: n_lcm)
    assert list(enumeration._passing_numerators(q, basket, (n,), config)) == []


@pytest.mark.parametrize("q", [3, 5])
def test_one_period_and_the_congruences_decide_integrality(q, monkeypatch):
    # the scan cut to [1, N), so that only the congruences see [N, 3N):
    # with non-negativity off it still agrees with the per-k loop, at
    # degrees that pass [1, N) and fail later too
    monkeypatch.setattr(enumeration, "_scan_stop", lambda n_lcm: n_lcm)
    config = _config(enforce_vanishing=False, nonnegativity=False)
    passed = decided = 0
    for basket in _walk(q):
        n_lcm = basket.index_lcm
        numerators = degree_candidates(q, basket)[:12]
        got = list(enumeration._passing_numerators(q, basket, numerators, config))
        expected = [
            n for n in numerators
            if _reference_scan(q, basket, n, enforce_vanishing=False, nonnegativity=False)
        ]
        assert got == expected
        passed += len(got)
        decided += sum(
            all(_t_scaled(q, basket, k, n) % (12 * q * n_lcm) == 0 for k in range(1, n_lcm))
            for n in numerators
            if n not in got
        )
    assert passed and decided


@pytest.mark.parametrize("stop", [2, 4])
def test_scan_reads_every_k_below_its_stop(stop, monkeypatch):
    # on the walk's inputs the last k of a scan is often redundant (by
    # Serre symmetry T(N - 1) = -T(N + 1 - q) mod 12qN), so the stop is
    # forced low here: a degree passes exactly when T(k) is a non-negative
    # multiple of 12qN for 1 <= k < stop and the congruences hold
    monkeypatch.setattr(enumeration, "_scan_stop", lambda n_lcm: stop)
    q = 5
    config = _config(enforce_vanishing=False)
    decided_last = 0
    for basket in itertools.islice(_walk(q), 0, None, 3):
        n_lcm = basket.index_lcm
        modulus = 12 * q * n_lcm
        linear = 24 * n_lcm - basket.sigma_scaled
        numerators = degree_candidates(q, basket)[:12]
        expected = []
        for n in numerators:
            ok = [
                value % modulus == 0 and value >= 0
                for value in (_t_scaled(q, basket, k, n) for k in range(1, stop))
            ]
            if _differences_vanish(q, n_lcm, n, linear):
                expected += [n] * all(ok)
                decided_last += all(ok[:-1]) and not ok[-1]
        assert list(enumeration._passing_numerators(q, basket, numerators, config)) == expected
    assert decided_last


def test_scan_stop_is_one_the_lemma_proves():
    # never past 3N; at least N, so that the congruences cover the rest of
    # the integrality check; and from the stop on T(k) > 0 by one of the
    # lemma's bounds: k >= 3N, or k^3 > 282N
    for n_lcm in range(1, 2000):
        stop = enumeration._scan_stop(n_lcm)
        assert n_lcm <= stop <= 3 * n_lcm
        assert stop == 3 * n_lcm or stop**3 > 282 * n_lcm
    assert [enumeration._scan_stop(n) for n in (1, 5, 6, 17, 18, 840)] == [3, 15, 17, 17, 18, 840]


def test_lemma_premises_hold_over_the_walk():
    # sum r^2 <= 576 and <= 32N on every walked basket, and every point
    # term 12 r c_p above -r^3 on every point the walk can add
    largest = 0
    for q in INDEX_SET:
        for p in point_domain(q):
            assert min(local_terms(q, p.r, p.a)) > -p.r**3
        for basket in _walk(q):
            squares = sum(p.r * p.r for p in basket.points)
            assert squares <= 576 and squares <= 32 * basket.index_lcm
            largest = max(largest, squares)
    assert largest == 576


def _walked_ids(q, config):
    # every degree degree_candidates allows, each through the public sieve
    return sorted(
        candidate_id(q, basket, a3)
        for basket in _walk(q)
        for a3 in _degrees(q, basket, config)
        if _passes_integrality(
            FanoInput(q=q, basket=basket, a3=a3),
            enforce_vanishing=config.enforce_vanishing,
            nonnegativity=config.nonnegativity,
        )
    )


@pytest.mark.parametrize("name", sorted(FILTER_SETS))
@pytest.mark.parametrize("q", [6, 8, 11, 13])
def test_closed_form_degree_matches_the_walk(q, name):
    # the enumeration scans the closed-form degree, or with vanishing off one
    # residue class per basket; the walk scans every degree it may scan
    for vanishing in (True, False):
        config = FILTER_SETS[name]._replace(enforce_vanishing=vanishing)
        found = enumerate_candidates(q, config)
        assert found
        assert sorted(c.id for c in found) == _walked_ids(q, config)


@pytest.mark.parametrize("name", sorted(FILTER_SETS))
def test_every_row_follows_from_the_definition(name, full_db):
    # every walked basket, every degree of the reference range and one
    # _t_scaled per k: no closed-form degree, no residue class and no
    # one-period lemma, at every index
    config = FILTER_SETS[name]
    assert config.enforce_vanishing
    expected, got = {}, {}
    for q in INDEX_SET:
        expected[q] = sorted(
            candidate_id(q, basket, Rational(n, basket.index_lcm))
            for basket in _walk(q)
            for n in _reference_degree_range(q, basket, config)
            if _reference_scan(q, basket, n, nonnegativity=config.nonnegativity)
        )
        if config == DEFAULT_CONFIG:
            found = [c for c in full_db if c.q == q]
        else:
            found = enumerate_candidates(q, config)
        got[q] = sorted(c.id for c in found)
    assert got == expected


@pytest.mark.parametrize("q", INDEX_SET)
def test_residue_class_matches_brute_force(q, full_db):
    # chi(1) integral, solved for n, against a check of every numerator
    # degree_candidates allows, under both filter sets; the candidates'
    # baskets make sure some basket has a solution
    shares = {k: enumeration._point_terms(q, k) for k in (-1, 1)}
    seen = set()
    walk = list(_walk(q))
    sample = random.Random(q).sample(walk[150:], min(150, len(walk) - 150))
    for basket in walk[:150] + sample + [c.basket for c in full_db if c.q == q]:
        n_lcm = basket.index_lcm
        modulus = 12 * q * n_lcm
        for k in (-1, 1):  # T(k) at n = 0, from the per-point shares
            assert (12 * q + 24 * k) * n_lcm + sum(
                (n_lcm // p.r) * shares[k][p.r, p.a] for p in basket.points
            ) == _t_scaled(q, basket, k, 0)
        # T(1) = T(1)|_{n=0} + q(q+1)(q+2) n
        const, coeff = _t_scaled(q, basket, 1, 0), q * (q + 1) * (q + 2)
        for config in FILTER_SETS.values():
            numerators = degree_candidates(q, basket, config)
            integral = [n for n in numerators if _t_scaled(q, basket, 1, n) % modulus == 0]
            solved = enumeration._residue_class(numerators, const, coeff, modulus)
            assert list(solved) == integral
            if numerators:
                seen.add(bool(integral))
    # an allowed range met both a class and no solution at all
    assert seen == {False, True}


#: Candidates per index in INDEX_SET with ``enforce_vanishing=False``.
NO_VANISHING_COUNTS = {
    "default": [259, 152, 74, 15, 29, 12, 2, 3, 6, 3, 1, 1],
    "capped": [259, 149, 71, 14, 27, 12, 2, 2, 5, 2, 1, 1],
}


@pytest.mark.parametrize("name", sorted(FILTER_SETS))
def test_no_vanishing_counts_frozen(name):
    config = FILTER_SETS[name]._replace(enforce_vanishing=False)
    counts = [len(enumerate_candidates(q, config)) for q in INDEX_SET]
    assert counts == NO_VANISHING_COUNTS[name]


@pytest.mark.parametrize("name", sorted(FILTER_SETS))
def test_ids_frozen_per_filter_set(name, full_db):
    # the table a load checks a named-set database against is a cache of
    # the enumeration; the default set's rows are the session database's
    assert sorted(ID_DIGESTS) == sorted(FILTER_SETS)
    config = FILTER_SETS[name]
    got = {}
    for q in INDEX_SET:
        if config == DEFAULT_CONFIG:
            found = [c for c in full_db if c.q == q]
        else:
            found = enumerate_candidates(q, config)
        ids = "\n".join(c.id for c in found)
        got[q] = (len(found), hashlib.sha256(ids.encode()).hexdigest())
    assert got == ID_DIGESTS[name]


@given(st.integers(0, 400))
@settings(max_examples=60)
def test_window_is_a_period(k):
    fano = FanoInput(
        q=5, basket=Basket.from_pairs([(2, 1), (7, 2)]), a3=Rational(3, 14)
    )
    window = _reference_window(fano)
    a = _reference_chi(k, fano)
    b = _reference_chi(k + window, fano)
    assert (a - b).denominator == 1  # fractional parts repeat with period L


def test_candidate_id():
    assert (
        candidate_id(9, Basket.from_pairs([(2, 1), (4, 1), (5, 2)]), Rational(1, 20))
        == "q9-2.1_4.1_5.2-a1.20"
    )
    assert candidate_id(4, Basket(), Rational(1)) == "q4-smooth-a1.1"


def test_enumerate_candidates_q6_frozen():
    found = enumerate_candidates(6)
    assert len(found) == 11
    assert [c.id for c in found] == sorted_ids_by_key(found)
    by_basket = {(c.basket.indices, c.a3) for c in found}
    assert ((7,), Rational(2, 7)) in by_basket
    assert ((5,), Rational(1, 5)) in by_basket
    seven = next(c for c in found if c.basket.indices == (7,))
    assert seven.dims == (1, 4, 8, 14, 22, 32)
    assert seven.genus == 31
    assert seven.minus_k3 == Rational(432, 7)
    assert seven.minus_k_c2 == 24 - Rational(48, 7)
    assert seven.dim(0) == 0
    # beyond the stored window the dimension is computed on demand
    assert seven.dim(7) == chi_integer(7, seven.fano) - 1


def sort_key(c):
    """The canonical order, the oracle of the enumeration's integer key.

    Index, then degree descending, then basket; the degree as a ``Fraction``.
    """
    return (c.q, -c.a3, c.basket)


def sorted_ids_by_key(found):
    return [c.id for c in sorted(found, key=sort_key)]


@pytest.mark.parametrize("name", sorted(FILTER_SETS))
def test_canonical_order_is_the_sort_key_order(name, full_db):
    # the enumeration sorts by an integer key; the oracle compares the
    # degrees as Fractions and the baskets as Baskets
    config = FILTER_SETS[name]
    found = full_db if config == DEFAULT_CONFIG else enumerate_candidates(INDEX_SET, config)
    shuffled = list(found)
    random.Random(name).shuffle(shuffled)
    assert shuffled != list(found)
    assert sorted(shuffled, key=sort_key) == list(found)
    # pairs with equal (q, A^3) are ordered by basket alone
    ties = [(a, b) for a, b in zip(found, found[1:]) if (a.q, a.a3) == (b.q, b.a3)]
    assert ties
    for a, b in ties[:5]:
        assert a.basket < b.basket
        assert sorted([b, a], key=enumeration._canonical_order) == [a, b]


@pytest.mark.usefixtures("lone_thread")
def test_enumerate_candidates_jobs_equivalence():
    assert enumerate_candidates((6, 8), jobs=2) == enumerate_candidates((6, 8))
    assert enumerate_candidates((8, 9, 10), jobs=3) == enumerate_candidates((8, 9, 10))


def _recording_forks(calls):
    """A ``_scan_shares`` stand-in that records its shares and its children's CPUs
    and scans every share here."""

    def record(shares, config, cpus):
        calls.append((list(shares), list(cpus)))
        return [enumeration._scan_share(share, config) for share in shares]

    return record


def _workers(calls):
    return [len(shares) for shares, _ in calls]


def _set_cpus(monkeypatch, count):
    """Make this process's CPU affinity mask hold ``count`` CPUs."""
    monkeypatch.setattr(
        enumeration.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def test_worker_count_is_clamped(monkeypatch):
    calls = []
    qs = (8, 9, 10, 11)
    serial = enumerate_candidates(qs)
    monkeypatch.setattr(enumeration, "_scan_shares", _recording_forks(calls))
    _set_cpus(monkeypatch, 3)
    assert enumerate_candidates(qs, jobs=2) == serial
    assert enumerate_candidates(qs, jobs=8) == serial
    assert _workers(calls) == [2, 3]
    # contiguous shares of near-equal length; each child gets one CPU of the
    # mask, the first one excepted, and this process keeps its mask
    assert calls[1] == ([(8,), (9,), (10, 11)], [1, 2])
    _set_cpus(monkeypatch, 1)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert _workers(calls) == [2, 3]  # one CPU: no fork at all
    # never more workers than indices, and a single index runs here
    _set_cpus(monkeypatch, 16)
    assert enumerate_candidates(qs[:2], jobs=8) == enumerate_candidates(qs[:2])
    assert _workers(calls) == [2, 3, 2]
    assert enumerate_candidates(6, jobs=8) == enumerate_candidates(6)
    assert enumerate_candidates((6,), jobs=8) == enumerate_candidates(6)
    assert _workers(calls) == [2, 3, 2]


def test_worker_count_follows_cpu_affinity(monkeypatch):
    calls = []
    qs = (8, 9, 10, 11)
    serial = enumerate_candidates(qs)
    monkeypatch.setattr(enumeration, "_scan_shares", _recording_forks(calls))
    # the affinity mask, not the machine's CPU count, bounds the workers
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 16)
    _set_cpus(monkeypatch, 1)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert calls == []
    _set_cpus(monkeypatch, 2)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert _workers(calls) == [2]
    # the child is pinned to a CPU the mask holds, past the lowest
    monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: {7, 3})
    assert enumerate_candidates(qs, jobs=8) == serial
    assert calls[-1] == ([(8, 9), (10, 11)], [7])
    # without an affinity call there is nothing to pin into: the scan is serial
    monkeypatch.delattr(enumeration.os, "sched_setaffinity", raising=False)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert _workers(calls) == [2, 2]


def test_shares_cover_every_index_once(monkeypatch):
    qs = (10, 6, 8)
    serial = enumerate_candidates(qs)
    assert serial == sorted(
        enumerate_candidates(6) + enumerate_candidates(8) + enumerate_candidates(10),
        key=sort_key,
    )
    calls, scanned = [], []
    real = enumeration._scan_share

    def counting(share, config):
        scanned.append(tuple(share))
        return real(share, config)

    monkeypatch.setattr(enumeration, "_scan_share", counting)
    monkeypatch.setattr(enumeration, "_scan_shares", _recording_forks(calls))
    _set_cpus(monkeypatch, 2)
    assert enumerate_candidates(qs, jobs=2) == serial
    # three indices keep two workers busy: one walk per share, in the given
    # order, and this process scans the first share
    assert calls == [([(10,), (6, 8)], [1])]
    assert scanned == [(10,), (6, 8)]
    assert sorted(q for share in scanned for q in share) == sorted(qs)
    # fewer indices than workers: one share per index all the same
    _set_cpus(monkeypatch, 8)
    assert enumerate_candidates((6, 8), jobs=5) == enumerate_candidates((6, 8))
    assert calls[1] == ([(6,), (8,)], [1])
    assert scanned == [(10,), (6, 8), (6,), (8,), (6, 8)]


needs_two_cpus = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the forked scan pins its child to a second CPU",
)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def lone_thread():
    """A test that forks for real runs with no other thread, or it would not fork."""
    assert threading.active_count() == 1


def test_a_live_thread_keeps_the_scan_serial(monkeypatch):
    qs = (6, 8, 9, 10)
    serial = enumerate_candidates(qs)
    _set_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked beside a live thread")

    monkeypatch.setattr(enumeration.os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert threading.active_count() > 1
        assert enumerate_candidates(qs, jobs=2) == serial
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@needs_two_cpus
@pytest.mark.usefixtures("lone_thread")
def test_forked_scan_restores_the_mask():
    mask = os.sched_getaffinity(0)
    qs = (6, 8, 9, 10)
    assert enumerate_candidates(qs, jobs=2) == enumerate_candidates(qs)
    assert os.sched_getaffinity(0) == mask
    _assert_no_child_left()


@needs_two_cpus
@pytest.mark.usefixtures("lone_thread")
def test_forked_scan_pins_each_share(monkeypatch):
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    masks = {}

    def mask_scan(share, config):
        for q in share:
            masks[q] = sorted(os.sched_getaffinity(0))
        if 10 in share:
            raise ValueError(masks)  # the child's record comes back in the exception
        return []

    monkeypatch.setattr(enumeration, "_scan_share", mask_scan)
    with pytest.raises(ValueError) as raised:
        enumerate_candidates((6, 8, 9, 10), jobs=2)
    # (6, 8) was scanned here under the mask as it was before the call, and
    # (9, 10) in the child pinned to the mask's second CPU
    assert masks == {6: cpus, 8: cpus}
    assert raised.value.args[0] == {9: cpus[1:2], 10: cpus[1:2]}
    assert os.sched_getaffinity(0) == mask
    _assert_no_child_left()


@needs_two_cpus
@pytest.mark.usefixtures("lone_thread")
@pytest.mark.parametrize("failing", [10, 6], ids=["in-child", "in-caller"])
def test_forked_scan_failure_reaches_the_caller(failing, monkeypatch):
    # (6, 8) is scanned here and (9, 10) in the child; a failure in either
    # share reaches the caller, with its mask unchanged and no child left
    real = enumeration._scan_share

    def failing_scan(share, config):
        if failing in share:
            raise ValueError(f"no scan of q={failing}")
        return real(share, config)

    monkeypatch.setattr(enumeration, "_scan_share", failing_scan)
    mask = os.sched_getaffinity(0)
    with pytest.raises(ValueError, match=f"no scan of q={failing}") as raised:
        enumerate_candidates((6, 8, 9, 10), jobs=2)
    # a child's traceback comes back as the cause; a failure here has none
    assert ("in failing_scan" in str(raised.value.__cause__)) == (failing == 10)
    assert os.sched_getaffinity(0) == mask
    _assert_no_child_left()


@needs_two_cpus
@pytest.mark.usefixtures("lone_thread")
def test_forked_scan_reports_a_child_that_sent_nothing(monkeypatch):
    real = enumeration._scan_share
    caller = os.getpid()

    def dying_scan(share, config):
        if 10 in share and os.getpid() != caller:
            os._exit(3)
        return real(share, config)

    monkeypatch.setattr(enumeration, "_scan_share", dying_scan)
    with pytest.raises(RuntimeError, match=r"q in \(9, 10\) exited with code 3"):
        enumerate_candidates((6, 8, 9, 10), jobs=2)
    _assert_no_child_left()


def test_decorations_multiply_candidates():
    found = enumerate_candidates(4)
    groups: dict = {}
    for c in found:
        groups.setdefault((c.basket.indices, c.a3), []).append(c)
    multi = [g for g in groups.values() if len(g) > 1]
    # decorated baskets genuinely multiply candidates at low index
    assert multi
    for group in multi:
        assert len({c.basket for c in group}) == len(group)


@pytest.mark.parametrize("name", ["default", "capped"])
def test_no_two_candidates_share_a_table_row(name, full_db):
    # a survey-table row shows (q, basket indices, A^3, dims): one row is
    # one candidate, with no orientation decorations left to collapse
    config = FILTER_SETS[name]
    found = full_db if config == DEFAULT_CONFIG else enumerate_candidates(INDEX_SET, config)
    assert len(found) == {"default": 472, "capped": 463}[name]
    rows = {(c.q, c.basket.indices, c.a3, c.dims) for c in found}
    assert len(rows) == len(found)


def test_the_472_candidates_have_472_hilbert_series(full_db):
    # A^3 and every h^0(kA) = dim|kA| + 1 can be read off the Hilbert
    # series, so distinct tuples mean distinct series, even with q ignored;
    # k <= 5 leaves one pair together
    def series(c, top):
        return c.a3, tuple(c.dim(k) for k in range(1, top + 1))

    assert len(full_db) == 472
    assert len({series(c, 6) for c in full_db}) == 472
    assert len({series(c, 5) for c in full_db}) == 471


def test_filter_diff_degree_cap():
    removed, added = filter_diff(5, "degree_cap_enforced")
    assert [c.id for c in removed] == [
        "q5-2.1_6.1-a2.3",
        "q5-7.2-a4.7",
        "q5-2.1_2.1_3.1_6.1-a1.2",
    ]
    assert added == []
    with pytest.raises(ValueError):
        filter_diff(5, "no_such_flag")


def test_filter_diff_matches_two_enumerations():
    """``filter_diff`` walks once and re-sieves; its oracle enumerates both sides."""
    enumerated = functools.lru_cache(maxsize=None)(enumerate_candidates)

    def oracle(q, flag, config):
        before = enumerated(q, config)
        after = enumerated(q, config._replace(**{flag: not getattr(config, flag)}))
        before_ids = {c.id for c in before}
        after_ids = {c.id for c in after}
        return (
            [c for c in before if c.id not in after_ids],
            [c for c in after if c.id not in before_ids],
        )

    # every config at q = 6 and 8, which includes the cap flip with BM off,
    # the one flip whose two sides do not nest
    cases = [
        (q, FilterConfig(*bits))
        for q in (6, 8)
        for bits in itertools.product((False, True), repeat=len(FILTER_FLAGS))
    ]
    cases += [(5, config) for config in FILTER_SETS.values()]
    for q, config in cases:
        for flag in FILTER_FLAGS:
            assert filter_diff(q, flag, config) == oracle(q, flag, config), (q, config, flag)


#: The flags :func:`degree_candidates` reads, and those the sieve reads.
RANGE_FLAGS = ("degree_cap_enforced", "bm_inequality")
SIEVE_FLAGS = ("enforce_vanishing", "nonnegativity")


def test_each_flag_feeds_one_half_of_the_battery():
    """``filter_diff`` re-checks only the half of the battery that a flag feeds.

    At every q = 5 basket, flipping a sieve flag leaves the degree range as
    it is, and flipping a range flag leaves the sieve's verdict on every
    numerator of that range as it is: under both named sets, and under the
    default with the vanishing filter off, where ``nonnegativity`` acts.
    """
    assert sorted(RANGE_FLAGS + SIEVE_FLAGS) == sorted(FILTER_FLAGS)
    configs = [*FILTER_SETS.values(), DEFAULT_CONFIG._replace(enforce_vanishing=False)]
    for config in configs:
        flipped = {f: config._replace(**{f: not getattr(config, f)}) for f in FILTER_FLAGS}
        for basket in _walk(5):
            numerators = degree_candidates(5, basket, config)
            for flag in SIEVE_FLAGS:
                assert degree_candidates(5, basket, flipped[flag]) == numerators
            passed = list(enumeration._passing_numerators(5, basket, numerators, config))
            for flag in RANGE_FLAGS:
                assert list(
                    enumeration._passing_numerators(5, basket, numerators, flipped[flag])
                ) == passed, (config, flag, basket)


#: For each flag, one ``(config, q)`` where flipping it changes the
#: candidates, with the ``(removed, added)`` counts it gives.
FLAG_WITNESSES = {
    "degree_cap_enforced": (DEFAULT_CONFIG, 5, (3, 0)),
    "enforce_vanishing": (DEFAULT_CONFIG, 5, (0, 11)),
    "bm_inequality": (CAPPED, 3, (0, 596)),
    "nonnegativity": (DEFAULT_CONFIG._replace(enforce_vanishing=False), 4, (0, 3)),
}


def test_every_filter_flag_changes_something():
    assert sorted(FLAG_WITNESSES) == sorted(FILTER_FLAGS)
    for flag, (config, q, counts) in FLAG_WITNESSES.items():
        removed, added = filter_diff(q, flag, config)
        assert (len(removed), len(added)) == counts, flag


def test_filter_diff_vanishing_adds():
    removed, added = filter_diff(6, "enforce_vanishing")
    assert removed == []  # relaxing a filter can only add candidates
    assert all(
        not _passes_integrality(c.fano, enforce_vanishing=True) for c in added
    )
    assert all(
        _passes_integrality(c.fano, enforce_vanishing=False) for c in added
    )


def test_facts_all_hold(full_db):
    checked = facts(full_db)
    assert [f.name for f in checked] == [
        "high-index-no-moving-A",
        "index-seven-moving-A",
        "singular-moving-A-bound",
        "very-moving-A-boundary",
        "degree-boundary",
    ]
    assert all(f.holds for f in checked)


def test_candidate_invariants(full_db):
    for c in full_db:
        assert c.minus_k3 == c.q**3 * c.a3
        assert c.genus == c.dims[-1] - 1
        assert c.id == candidate_id(c.q, c.basket, c.a3)
        assert len(c.dims) == c.q
