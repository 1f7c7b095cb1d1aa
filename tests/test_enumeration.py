import hashlib
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qfano import enumeration
from qfano.arith import Rational
from qfano.enumeration import (
    DEFAULT_CONFIG,
    FILTER_SETS,
    INDEX_SET,
    Candidate,
    candidate_id,
    degree_candidates,
    enumerate_baskets,
    enumerate_candidates,
    facts,
    filter_diff,
    point_domain,
    series_class,
)
from qfano.riemann_roch import Basket, FanoInput, chi_integer, scaled_kawamata_sum

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


def test_enumerate_baskets_basics():
    baskets = list(enumerate_baskets(5))
    assert baskets[0] == Basket()
    assert len(set(baskets)) == len(baskets)
    # sigma < 24 throughout
    assert all(_reference_sigma(b) < 24 for b in baskets)
    # index 24 fits alone (sigma = 575/24) but together with nothing else
    with_24 = {b for b in baskets if 24 in b.indices}
    assert with_24 == {Basket.from_pairs([(24, a)]) for a in (1, 5, 7, 11)}


def test_enumerate_baskets_count_frozen():
    count3 = sum(1 for _ in enumerate_baskets(3))
    assert count3 == 2813
    assert sum(1 for _ in enumerate_baskets(9)) == count3


@pytest.mark.parametrize("q", INDEX_SET)
def test_walk_matches_the_public_constructor(q):
    # the walk builds baskets without sorting or summing; the public
    # constructor (here fed the points reversed) does both
    previous = None
    for basket in enumerate_baskets(q):
        rebuilt = Basket(basket.points[::-1])
        assert basket == rebuilt
        assert basket.index_lcm == rebuilt.index_lcm
        assert basket.sigma_scaled == rebuilt.sigma_scaled
        assert basket.sigma_scaled == scaled_kawamata_sum(basket.points, basket.index_lcm)
        assert previous is None or previous < basket
        previous = basket


def test_q19_basket_present():
    target = Basket.from_pairs([(3, 1), (4, 1), (5, 2), (7, 3)])
    assert target in set(enumerate_baskets(19))


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
    config = replace(CAPPED, bm_inequality=bm)
    at_cap = 0
    for basket in enumerate_baskets(5):
        got = degree_candidates(5, basket, config)
        assert got == _reference_degree_range(5, basket, config)
        at_cap += basket.index_lcm % 2 == 0
    assert at_cap > 1000
    two = Basket.from_pairs([(2, 1)])
    assert (1 in degree_candidates(5, two, config)) == (exception == "real")
    assert 1 not in degree_candidates(5, Basket.from_pairs([(2, 1), (2, 1)]), config)


def test_degree_candidates_bm_bound():
    # BM for q = 5, basket (2): 17 * 5 * n <= 4 * (48 - 3), so n <= 2
    two = Basket.from_pairs([(2, 1)])
    no_bm_two = replace(DEFAULT_CONFIG, bm_inequality=False)
    assert degree_candidates(5, two, no_bm_two) == range(1, 3)
    assert _degrees(5, two, no_bm_two) == [Rational(1, 2), Rational(1)]
    basket = Basket.from_pairs([(4, 1), (5, 1)])
    no_bm = replace(CAPPED, bm_inequality=False)
    assert len(degree_candidates(3, basket, no_bm)) == 46
    assert degree_candidates(3, basket, CAPPED) == degree_candidates(3, basket, no_bm)[:45]
    # sigma >= 24 leaves no room for any degree under BM
    heavy = Basket.from_pairs([(23, 1), (23, 1)])
    assert len(degree_candidates(3, heavy, DEFAULT_CONFIG)) == 0
    assert len(degree_candidates(3, heavy, CAPPED)) == 0


def test_filter_diff_bm_inequality():
    # the uncapped walk is bounded by BM whatever the flag says
    assert filter_diff(5, "bm_inequality") == ([], [])
    removed, added = filter_diff(5, "bm_inequality", CAPPED)
    assert removed == []
    assert len(added) == 66


def _integrality_window(fano):
    """Period of the fractional part of ``chi``: checking one period suffices."""
    return enumeration._BasketScanner(fano.q, fano.basket).window(fano.a3.denominator)


def _passes_integrality(fano, *, enforce_vanishing=True, nonnegativity=True):
    """The enumeration's sieve on one triple: its ``_BasketScanner`` at ``A^3``.

    Decides ``chi(k) = 0`` on ``-q < k < 0``, and integrality (plus optional
    non-negativity) for ``0 <= k < L``, ``L`` = :func:`_integrality_window`;
    by the 3N lemma the scan itself may stop well before ``L``.  Its oracle
    is ``_reference_passes``, which runs the whole period on
    ``_reference_chi``.
    """
    scanner = enumeration._BasketScanner(fano.q, fano.basket)
    if scanner.n_lcm % fano.a3.denominator != 0:
        return False
    return scanner.scan(
        fano.a3.numerator * (scanner.n_lcm // fano.a3.denominator),
        enforce_vanishing=enforce_vanishing,
        nonnegativity=nonnegativity,
    )


def _reference_scan(scanner, n, *, enforce_vanishing=True, nonnegativity=True):
    """``_BasketScanner.scan`` as one ``chi_scaled`` call per ``k``."""
    if enforce_vanishing:
        for k in range(1 - scanner.q, 0):
            if scanner.chi_scaled(k, n) != 0:
                return False
    window = scanner.window(scanner.n_lcm // math.gcd(n, scanner.n_lcm))
    if not nonnegativity or scanner.linear_coeff >= 0:
        window = min(window, 3 * scanner.n_lcm)
    for k in range(1, window):
        value = scanner.chi_scaled(k, n)
        if value % scanner.modulus != 0:
            return False
        if nonnegativity and value < 0:
            return False
    return True


def test_passes_integrality_frozen_cases():
    two = Basket.from_pairs([(2, 1)])
    assert _passes_integrality(FanoInput(q=5, basket=two, a3=Rational(1, 2)))
    assert not _passes_integrality(FanoInput(q=5, basket=two, a3=Rational(1)))
    assert _passes_integrality(FanoInput(q=4, basket=Basket(), a3=Rational(1)))
    assert not _passes_integrality(FanoInput(q=4, basket=Basket(), a3=Rational(1, 2)))


def _reference_window(fano):
    sigma = _reference_sigma(fano.basket)
    return math.lcm(
        12 * fano.a3.denominator, 12 * fano.q * sigma.denominator, fano.basket.index_lcm
    )


def _reference_passes(fano, *, enforce_vanishing=True, nonnegativity=True):
    # pure rational-arithmetic re-statement of the sieve over a whole period,
    # independent of the integer kernel the production scan uses
    if enforce_vanishing:
        for k in range(1 - fano.q, 0):
            if _reference_chi(k, fano) != 0:
                return False
    for k in range(1, _reference_window(fano)):
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
        if any(math.gcd(p.r, q) != 1 for p in basket):
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
    # the scan stops at min(window, 3N); the reference runs the whole
    # period, so random triples on both sides of 3N must agree
    rng = random.Random(2010)
    small = {q: [b for b in enumerate_baskets(q) if b.index_lcm <= 12] for q in (3, 4, 5)}
    triples = []
    for _ in range(40):
        q = rng.choice(sorted(small))
        basket = rng.choice(small[q])
        n_lcm = basket.index_lcm
        a3 = Rational(rng.randint(1, 3 * n_lcm), n_lcm)
        triples.append(FanoInput(q=q, basket=basket, a3=a3))
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
    spans = {_integrality_window(f) > 3 * f.basket.index_lcm for f in triples}
    assert spans == {True, False}
    passed = 0
    for fano in triples:
        assert _integrality_window(fano) == _reference_window(fano)
        for vanish, nonneg in itertools.product((True, False), repeat=2):
            verdict = _passes_integrality(
                fano, enforce_vanishing=vanish, nonnegativity=nonneg
            )
            assert verdict == _reference_passes(
                fano, enforce_vanishing=vanish, nonnegativity=nonneg
            )
            passed += verdict
    assert passed


@pytest.mark.parametrize("q", [5, 7])
def test_scan_matches_the_per_k_loop(q):
    # every basket with a degree range, at its chi(1) residue class and a
    # few numerators outside it, each through one scanner in turn so that
    # the scanner's table is shared between them
    verdicts = set()
    for basket in enumerate_baskets(q):
        numerators = degree_candidates(q, basket)
        if not numerators:
            continue
        scanner = enumeration._BasketScanner(q, basket)
        solved = enumeration._residue_class(
            numerators, scanner.chi_scaled(1, 0), q * (q + 1) * (q + 2), scanner.modulus
        )
        for n in sorted({*solved, *numerators[:2], numerators[-1]}):
            for vanish, nonneg in itertools.product((True, False), repeat=2):
                verdict = scanner.scan(n, enforce_vanishing=vanish, nonnegativity=nonneg)
                assert verdict == _reference_scan(
                    scanner, n, enforce_vanishing=vanish, nonnegativity=nonneg
                )
                verdicts.add((vanish, nonneg, verdict))
    assert len(verdicts) == 8


def _heavy_baskets(q):
    """Baskets with ``sigma > 24`` from points of index at most 8."""
    domain = [p for p in point_domain(q) if p.r <= 8]
    return (
        st.lists(st.sampled_from(domain), min_size=3, max_size=9)
        .map(Basket)
        .filter(lambda b: b.sigma_scaled > 24 * b.index_lcm)
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_scan_past_sigma_24_matches_the_per_k_loop(data):
    # sigma > 24 takes the whole period when non-negativity is checked, and
    # 3N without it; the walk never yields such a basket.  The numerators
    # integral up to 3N make the checked scan run the whole period.
    q = data.draw(st.sampled_from([5, 7]))
    basket = data.draw(_heavy_baskets(q))
    scanner = enumeration._BasketScanner(q, basket)
    assert scanner.linear_coeff < 0
    n_lcm = scanner.n_lcm
    integral = [
        n
        for n in range(1, 3 * n_lcm + 1)
        if _reference_scan(scanner, n, enforce_vanishing=False, nonnegativity=False)
    ]
    numerators = data.draw(st.lists(st.integers(1, 3 * n_lcm), max_size=2))
    if integral:
        numerators += data.draw(st.lists(st.sampled_from(integral), min_size=1, max_size=2))
    for n in numerators:
        for vanish, nonneg in itertools.product((True, False), repeat=2):
            assert scanner.scan(
                n, enforce_vanishing=vanish, nonnegativity=nonneg
            ) == _reference_scan(scanner, n, enforce_vanishing=vanish, nonnegativity=nonneg)


def test_scan_past_3n_on_a_heavy_basket():
    # sigma = 73/2 > 24: a checked scan of the integral n = 36 runs the
    # whole period (120 > 3N = 72), and a second numerator reuses the table
    basket = Basket.from_pairs([(3, 1), (3, 1), (4, 1), (6, 1), (6, 1), (8, 3), (8, 3)])
    scanner = enumeration._BasketScanner(5, basket)
    assert scanner.linear_coeff < 0 and scanner.window(2) == 120
    for n in (36, 12, 36):
        for vanish, nonneg in itertools.product((True, False), repeat=2):
            assert scanner.scan(
                n, enforce_vanishing=vanish, nonnegativity=nonneg
            ) == _reference_scan(scanner, n, enforce_vanishing=vanish, nonnegativity=nonneg)
    assert scanner.scan(36, enforce_vanishing=False)
    assert _passes_integrality(
        FanoInput(q=5, basket=basket, a3=Rational(36, 24)), enforce_vanishing=False
    ) == _reference_passes(
        FanoInput(q=5, basket=basket, a3=Rational(36, 24)), enforce_vanishing=False
    )


def _walked_ids(q, config):
    # every degree degree_candidates allows, each through the public sieve
    return sorted(
        candidate_id(q, basket, a3)
        for basket in enumerate_baskets(q)
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
        config = replace(FILTER_SETS[name], enforce_vanishing=vanishing)
        found = enumerate_candidates(q, config)
        assert found
        assert sorted(c.id for c in found) == _walked_ids(q, config)


@pytest.mark.parametrize("q", INDEX_SET)
def test_residue_class_matches_brute_force(q, full_db):
    # chi(1) integral, solved for n, against a check of every numerator
    # degree_candidates allows, under both filter sets; the candidates'
    # baskets make sure some basket has a solution
    shares = {k: enumeration._point_terms(q, k) for k in (-1, 1)}
    seen = set()
    walk = list(enumerate_baskets(q))
    sample = random.Random(q).sample(walk[150:], min(150, len(walk) - 150))
    for basket in walk[:150] + sample + [c.basket for c in full_db if c.q == q]:
        scanner = enumeration._BasketScanner(q, basket)
        n_lcm = basket.index_lcm
        for k in (-1, 1):  # T(k) at n = 0, from the per-point shares
            assert (12 * q + 24 * k) * n_lcm + sum(
                (n_lcm // p.r) * shares[k][p.r, p.a] for p in basket
            ) == scanner.chi_scaled(k, 0)
        # T(1) = T(1)|_{n=0} + q(q+1)(q+2) n
        const, coeff = scanner.chi_scaled(1, 0), q * (q + 1) * (q + 2)
        for config in FILTER_SETS.values():
            numerators = degree_candidates(q, basket, config)
            integral = [
                n for n in numerators if scanner.chi_scaled(1, n) % scanner.modulus == 0
            ]
            solved = enumeration._residue_class(numerators, const, coeff, scanner.modulus)
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
    config = replace(FILTER_SETS[name], enforce_vanishing=False)
    counts = [len(enumerate_candidates(q, config)) for q in INDEX_SET]
    assert counts == NO_VANISHING_COUNTS[name]


#: Per filter set and index in INDEX_SET: the candidate count and the sha256
#: of the ids, in canonical order, joined by newlines.
ID_DIGESTS = {
    "capped": [
        (231, "b3cbf41cbb91ba217b4ee0ff97cb975bd8bed433518f630a961f30f0dacc4339"),  # q=3
        (121, "34b4f5b897973f11dc57c99c571ba2e68865b0390da04e5ddd660c3d87d9ee65"),  # q=4
        (60, "c7dfb8808b6e55417ec4ae4a518c52b08e7f893f7dcdf583e2867183d11e6447"),  # q=5
        (10, "2828fd3b6cb133691ec073aaf01e731c19a2948006a70a84c74bf9cdbb6107dd"),  # q=6
        (21, "5e93dbd6abe590d4ef3c116dbfed5832c2d29338697710537f928bb2de5f79de"),  # q=7
        (10, "9c0578e6f8dc9d037825286ea7138414e7e5034c99f2b40ccfe3ea32f8e55905"),  # q=8
        (2, "adcbac4915531cd1c5840d4a980da298674d6c471eb4d62d039305d9aa1492cc"),  # q=9
        (1, "70a006a2e48b791f8d4914d134daced063fabb7ced0946b4a03a473725bc4b03"),  # q=10
        (3, "722e7b7aaf1398659879a1eefb053e65780858af8bc9e7f8ec338debb71ceff0"),  # q=11
        (2, "80ba5531049e85051c750f306380418088f8e68749468647852473c573a7e2ff"),  # q=13
        (1, "e6067a0eb05f7b5de99017a1113eee41dc6637ceb647b6c1fe93560811213dd8"),  # q=17
        (1, "d06d02832ce67aca050f449999fe692f74be03460ce7f0c78319b0967fa7814a"),  # q=19
    ],
    "default": [
        (231, "b3cbf41cbb91ba217b4ee0ff97cb975bd8bed433518f630a961f30f0dacc4339"),  # q=3
        (124, "f77f8966b927d57b5141f227c13e30c8b04725621c1c099106aa0f7884bd9b5e"),  # q=4
        (63, "d8c6e70a894df9470a0848f96325228ebf83cf2d06cdebfec4b324140ec64f18"),  # q=5
        (11, "4ecfb16a7253d498e094678588b47f3812dc845dea26c9c8b0b6c8fa16bd3d3a"),  # q=6
        (23, "b102f97d7f8ed82837eb5bf46bcf947ca4bb4642ff936b2d66fa142bafcdbf71"),  # q=7
        (10, "9c0578e6f8dc9d037825286ea7138414e7e5034c99f2b40ccfe3ea32f8e55905"),  # q=8
        (2, "adcbac4915531cd1c5840d4a980da298674d6c471eb4d62d039305d9aa1492cc"),  # q=9
        (1, "70a006a2e48b791f8d4914d134daced063fabb7ced0946b4a03a473725bc4b03"),  # q=10
        (3, "722e7b7aaf1398659879a1eefb053e65780858af8bc9e7f8ec338debb71ceff0"),  # q=11
        (2, "80ba5531049e85051c750f306380418088f8e68749468647852473c573a7e2ff"),  # q=13
        (1, "e6067a0eb05f7b5de99017a1113eee41dc6637ceb647b6c1fe93560811213dd8"),  # q=17
        (1, "d06d02832ce67aca050f449999fe692f74be03460ce7f0c78319b0967fa7814a"),  # q=19
    ],
}


@pytest.mark.parametrize("name", sorted(FILTER_SETS))
def test_ids_frozen_per_filter_set(name, full_db):
    # the default set's rows are the session database's
    config = FILTER_SETS[name]
    got = []
    for q in INDEX_SET:
        if config == DEFAULT_CONFIG:
            found = [c for c in full_db if c.q == q]
        else:
            found = enumerate_candidates(q, config)
        ids = "\n".join(c.id for c in found)
        got.append((len(found), hashlib.sha256(ids.encode()).hexdigest()))
    assert got == ID_DIGESTS[name]


@given(st.integers(0, 400))
@settings(max_examples=60)
def test_window_is_a_period(k):
    fano = FanoInput(
        q=5, basket=Basket.from_pairs([(2, 1), (7, 2)]), a3=Rational(3, 14)
    )
    window = _integrality_window(fano)
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


def sorted_ids_by_key(found):
    return [c.id for c in sorted(found, key=Candidate.sort_key)]


def test_enumerate_candidates_jobs_equivalence():
    assert enumerate_candidates((6, 8), jobs=2) == enumerate_candidates((6, 8))
    assert enumerate_candidates((8, 9, 10), jobs=3) == enumerate_candidates((8, 9, 10))


def _recording_pool(sizes, jobs=None):
    """A Pool stand-in that records its size (and jobs' indices) and runs them here."""

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, func, chunks):
            if jobs is not None:
                jobs.append([index for index, _ in chunks])
            return [func(chunk) for chunk in chunks]

    return RecordingPool


def _set_cpus(monkeypatch, count):
    """Make this process's CPU affinity mask hold ``count`` CPUs."""
    monkeypatch.setattr(
        enumeration.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def test_worker_count_is_clamped(monkeypatch):
    sizes = []
    qs = (8, 9, 10, 11)
    serial = enumerate_candidates(qs)
    monkeypatch.setattr(enumeration, "Pool", _recording_pool(sizes))
    _set_cpus(monkeypatch, 3)
    assert enumerate_candidates(qs, jobs=2) == serial
    assert enumerate_candidates(qs, jobs=8) == serial
    assert sizes == [2, 3]
    _set_cpus(monkeypatch, 1)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert sizes == [2, 3]  # one CPU: no pool at all
    # never more workers than indices, and a single index runs here
    _set_cpus(monkeypatch, 16)
    assert enumerate_candidates(qs[:2], jobs=8) == enumerate_candidates(qs[:2])
    assert sizes == [2, 3, 2]
    assert enumerate_candidates(6, jobs=8) == enumerate_candidates(6)
    assert enumerate_candidates((6,), jobs=8) == enumerate_candidates(6)
    assert sizes == [2, 3, 2]


def test_worker_count_follows_cpu_affinity(monkeypatch):
    sizes = []
    qs = (8, 9, 10, 11)
    serial = enumerate_candidates(qs)
    monkeypatch.setattr(enumeration, "Pool", _recording_pool(sizes))
    # the affinity mask, not the machine's CPU count, bounds the workers
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 16)
    _set_cpus(monkeypatch, 1)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert sizes == []
    _set_cpus(monkeypatch, 2)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert sizes == [2]
    # without an affinity call the CPU count bounds them (unknown: one)
    monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert sizes == [2, 3]
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    assert enumerate_candidates(qs, jobs=8) == serial
    assert sizes == [2, 3]


def test_one_pool_serves_every_index(monkeypatch):
    qs = (10, 6, 8)
    serial = enumerate_candidates(qs)
    assert serial == sorted(
        enumerate_candidates(6) + enumerate_candidates(8) + enumerate_candidates(10),
        key=Candidate.sort_key,
    )
    sizes, jobs = [], []
    monkeypatch.setattr(enumeration, "Pool", _recording_pool(sizes, jobs))
    _set_cpus(monkeypatch, 2)
    assert enumerate_candidates(qs, jobs=2) == serial
    # three indices keep two workers busy: one whole walk per index
    assert sizes == [2]
    assert jobs == [[10, 6, 8]]
    # fewer indices than workers: one job per index all the same
    _set_cpus(monkeypatch, 8)
    assert enumerate_candidates((6, 8), jobs=5) == enumerate_candidates((6, 8))
    assert sizes == [2, 2]
    assert jobs[1] == [6, 8]


def test_series_class_collapses_orientations():
    found = enumerate_candidates(4)
    groups: dict = {}
    for c in found:
        groups.setdefault((c.basket.indices, c.a3), []).append(c)
    multi = [g for g in groups.values() if len(g) > 1]
    # decorated baskets genuinely multiply candidates at low index
    assert multi
    for group in multi:
        assert len({c.basket for c in group}) == len(group)
    # candidates with identical plurigenus tables share a class, and classes
    # never merge across distinct (indices, a3) pairs
    assert len({series_class(c) for c in found}) == len(
        {(c.basket.indices, c.a3, c.dims) for c in found}
    )


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
