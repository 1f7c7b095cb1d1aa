import functools
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfano.arith import NotCoprimeError, Rational
from qfano.riemann_roch import (
    Basket,
    FanoInput,
    IndexNotCoprimeError,
    NonIntegralChiError,
    SingularPoint,
    chi,
    chi_integer,
    dims,
    genus,
    kawamata_sum,
    local_index,
    local_terms,
)
from qfano.enumeration import (
    DEFAULT_CONFIG,
    FILTER_SETS,
    INDEX_SET,
    enumerate_candidates,
    point_domain,
)


def test_singular_point_canonicalization():
    assert SingularPoint(5, 3) == SingularPoint(5, 2)
    assert SingularPoint(4, 3).a == 1
    assert SingularPoint(15, 8).a == 7
    assert str(SingularPoint(9, 5)) == "9:4"
    with pytest.raises(NotCoprimeError):
        SingularPoint(9, 6)


@pytest.mark.parametrize("text, message", [
    ("2:1", "not a basket literal: '2:1'"),
    ("[2]", "malformed basket entry '2' in '[2]'"),
])
def test_basket_from_text_refusals(text, message):
    with pytest.raises(ValueError) as refused:
        Basket.from_text(text)
    assert str(refused.value) == message


def test_basket_is_sorted_multiset():
    b = Basket.from_pairs([(5, 2), (2, 1), (5, 1), (2, 1)])
    assert b.indices == (2, 2, 5, 5)
    assert str(b) == "[2:1, 2:1, 5:1, 5:2]"
    assert b.index_lcm == 10
    assert Basket.from_text(str(b)) == b
    assert Basket.from_text("[]") == Basket()
    assert not Basket().points
    assert Basket().index_lcm == 1
    # N sigma = 2 (10/2)(2^2 - 1) + 2 (10/5)(5^2 - 1)
    assert b.sigma_scaled == 126
    assert Basket().sigma_scaled == 0
    assert repr(Basket.from_pairs([(2, 1)])) == (
        "Basket(points=(SingularPoint(r=2, a=1),), index_lcm=2, sigma_scaled=3)"
    )
    assert hash(b) == hash(Basket(tuple(reversed(b.points))))


def test_basket_compares_hashes_and_prints_by_points_alone():
    b = Basket.from_pairs([(5, 2), (2, 1)])
    # N and N sigma are functions of the points, so the order of baskets is
    # the order of their points
    smaller = Basket.from_pairs([(2, 1)])
    assert smaller < b and smaller <= b and b > smaller and b >= smaller
    assert (smaller < b) == (smaller.points < b.points)
    # a basket is not a tuple of points
    assert b != b.points and b != (b.points,)
    with pytest.raises(TypeError):
        b < b.points
    for name in ("points", "index_lcm", "sigma_scaled", "other"):
        with pytest.raises(AttributeError):
            setattr(b, name, ())
        with pytest.raises(AttributeError):
            delattr(b, name)
    assert b.index_lcm == 10 and b.points == (SingularPoint(2, 1), SingularPoint(5, 2))


def test_records_survive_pickling():
    b = Basket.from_pairs([(5, 2), (2, 1), (7, 3)])
    copy = pickle.loads(pickle.dumps(b))
    assert copy == b and type(copy) is Basket
    assert (copy.index_lcm, copy.sigma_scaled) == (b.index_lcm, b.sigma_scaled)
    assert repr(copy) == repr(b)
    # unpickling goes through the constructor, so a basket with a wrong
    # N and N sigma comes back with the true ones of its points
    forged = pickle.loads(pickle.dumps(Basket._from_sorted(b.points, 7, 0)))
    assert (forged.index_lcm, forged.sigma_scaled) == (b.index_lcm, b.sigma_scaled)
    point = pickle.loads(pickle.dumps(SingularPoint(5, 3)))
    assert point == SingularPoint(5, 2) and type(point) is SingularPoint
    # the mirror orientation is canonicalised on unpickling too: a point
    # stored with a = r - a (here forced past the constructor) comes back
    # with the canonical a
    mirror = tuple.__new__(SingularPoint, (5, 3))
    assert mirror.a == 3
    assert pickle.loads(pickle.dumps(mirror)) == SingularPoint(5, 2)


def test_replace_builds_like_the_constructor():
    assert SingularPoint(5, 1)._replace(a=3) == SingularPoint(5, 2)
    fano = FanoInput(q=6, basket=Basket.from_pairs([(7, 3)]), a3=Rational(2, 7))
    assert fano._replace(a3=Rational(1, 7)).a3 == Rational(1, 7)
    with pytest.raises(IndexNotCoprimeError):
        fano._replace(q=7)
    basket = Basket.from_pairs([(2, 1)])._replace(points=(SingularPoint(7, 3), SingularPoint(5, 2)))
    assert basket == Basket.from_pairs([(5, 2), (7, 3)])
    assert (basket.index_lcm, basket.sigma_scaled) == (35, 7 * 24 + 5 * 48)


PAIR_LISTS = [
    [(5, 2), (2, 1), (5, 1), (2, 1)],
    [(5, 3), (2, 1), (5, 4), (2, 1)],
    [(7, 3), (7, 4), (3, 1)],
    [(4, 3), (4, 1), (11, 7)],
    [(2, 1)],
    [],
]


def test_shared_points_behave_as_fresh_points():
    # a database load shares one point per (r, a) among its rows; a basket of
    # shared points must be indistinguishable from one built of fresh points,
    # mirrors included
    point = functools.cache(SingularPoint)
    shared = [Basket(tuple(point(r, a) for r, a in pairs)) for pairs in PAIR_LISTS]
    fresh = [Basket.from_pairs(pairs) for pairs in PAIR_LISTS]
    mirrored = [Basket(tuple(point(r, r - a) for r, a in pairs)) for pairs in PAIR_LISTS]
    for b, f, m in zip(shared, fresh, mirrored):
        for other in (f, m):
            assert b == other and hash(b) == hash(other)
            assert repr(b) == repr(other) and str(b) == str(other)
            assert (b.index_lcm, b.sigma_scaled) == (other.index_lcm, other.sigma_scaled)
    assert shared[0] == shared[1]  # (5, 3) and (5, 4) are mirrors of (5, 2) and (5, 1)
    assert sorted(shared) == sorted(fresh) == sorted(mirrored)
    for i, j in itertools.product(range(len(shared)), repeat=2):
        assert (shared[i] < shared[j]) == (fresh[i] < fresh[j])


@given(st.lists(st.tuples(st.integers(2, 24), st.integers(1, 23)), max_size=6))
def test_basket_points_sort_in_dataclass_order(pairs):
    pairs = [(r, a) for r, a in pairs if math.gcd(r, a) == 1]
    points = tuple(sorted(SingularPoint(r, a) for r, a in pairs))
    assert Basket.from_pairs(pairs).points == points


def test_kawamata_sum():
    assert kawamata_sum(Basket.from_pairs([(2, 1)])) == Rational(3, 2)
    assert kawamata_sum(Basket.from_pairs([(2, 1), (4, 1), (5, 2)])) == (
        Rational(3, 2) + Rational(15, 4) + Rational(24, 5)
    )
    assert kawamata_sum(Basket()) == 0


def test_fano_input_validation():
    with pytest.raises(IndexNotCoprimeError):
        FanoInput(q=6, basket=Basket.from_pairs([(2, 1)]), a3=Rational(1))
    with pytest.raises(ValueError):
        FanoInput(q=0, basket=Basket(), a3=Rational(1))
    with pytest.raises(ValueError):
        FanoInput(q=3, basket=Basket(), a3=Rational(0))


def test_local_index():
    p = SingularPoint(5, 2)
    assert local_index(0, 9, p) == 0
    # -K = qA has local index r - 1 at every basket point
    assert local_index(9, 9, p) == 4
    assert local_index(7, 7, SingularPoint(2, 1)) == 1
    # k = -1 is the polarization generator's mirror: index q^{-1} mod r
    assert local_index(-1, 9, p) == pow(9, -1, 5)
    with pytest.raises(IndexNotCoprimeError):
        local_index(1, 5, SingularPoint(5, 2))


def _raw_contribution(k: int, q: int, r: int, a: int) -> Fraction:
    # independent transcription of the local term, without orientation
    # canonicalization: the production code must agree for both a and r-a
    i = (-k * pow(q, -1, r)) % r
    total = Fraction(-i * (r * r - 1), 12 * r)
    for j in range(1, i):
        ja = (j * a) % r
        total += Fraction(ja * (r - ja), 2 * r)
    return total


def _reference_sigma(basket: Basket) -> Fraction:
    return sum((Fraction(r * r - 1, r) for r in basket.indices), Fraction(0))


def _reference_chi(k: int, fano: FanoInput) -> Fraction:
    # the formula of the riemann_roch docstring term by term in rationals;
    # it is the oracle for the integer code, so it calls none of it
    q = fano.q
    value = (
        1
        + Fraction(k * (k + q) * (2 * k + q), 12) * fano.a3
        + Fraction(k, 12 * q) * (24 - _reference_sigma(fano.basket))
    )
    for p in fano.basket.points:
        value += _raw_contribution(k, q, p.r, p.a)
    return value


def point_contribution(k: int, q: int, point: SingularPoint) -> Fraction:
    # c_p(k) of one basket point, read off the production table
    return Fraction(local_terms(q, point.r, point.a)[k % point.r], 12 * point.r)


@given(
    st.integers(-30, 30),
    st.sampled_from([3, 4, 5, 7, 8, 9, 11]),
    st.integers(2, 24),
)
@settings(max_examples=300)
def test_point_contribution_matches_raw_and_is_orientation_symmetric(k, q, r):
    if math.gcd(q, r) != 1:
        return
    for a in range(1, r):
        if math.gcd(a, r) != 1:
            continue
        point = SingularPoint(r, a)
        value = point_contribution(k, q, point)
        assert value == _raw_contribution(k, q, r, a)
        assert value == _raw_contribution(k, q, r, r - a)


def _point_term(r: int, a: int, i: int) -> int:
    # 12 r c_p at local index i, the docstring's sum term by term
    inner = 0
    for j in range(1, i):
        ja = (j * a) % r
        inner += ja * (r - ja)
    return -i * (r * r - 1) + 6 * inner


def test_local_terms_match_the_sum_at_every_domain_point():
    for q in INDEX_SET:
        for p in point_domain(q):
            table = local_terms(q, p.r, p.a)
            assert len(table) == p.r
            for k in range(-p.r, 2 * p.r):
                assert table[k % p.r] == _point_term(p.r, p.a, local_index(k, q, p))


def test_local_terms_cache_holds_a_domain_and_a_load(full_db):
    # neither an index's scan nor a load of every candidate evicts a table
    # it still needs
    domain = max(len(point_domain(q)) for q in INDEX_SET)
    load = {(c.q, p.r, p.a) for c in full_db for p in c.basket.points}
    assert (domain, len(load)) == (84, 125)
    assert domain + len(load) <= local_terms.cache_info().maxsize
    with pytest.raises(IndexNotCoprimeError):
        local_terms(5, 10, 3)


@pytest.mark.parametrize("config", [
    DEFAULT_CONFIG, FILTER_SETS["capped"], DEFAULT_CONFIG._replace(enforce_vanishing=False)
], ids=["default", "capped", "vanishing-off"])
def test_a_scan_of_every_index_builds_each_table_once(config):
    local_terms.cache_clear()
    enumerate_candidates(INDEX_SET, config)
    info = local_terms.cache_info()
    assert info.misses == info.currsize == sum(len(point_domain(q)) for q in INDEX_SET)


def test_chi_at_a_point_of_large_prime_index():
    # far outside any enumerated basket: the table is built once, in O(r)
    fano = FanoInput(q=3, basket=Basket.from_pairs([(1009, 1)]), a3=Rational(1, 1009))
    for k in (-1009, -4, -1, 0, 1, 2, 3, 500, 1008, 2021):
        assert chi(k, fano) == _reference_chi(k, fano)


@given(st.integers(-50, 50))
def test_point_contribution_periodic(k):
    point = SingularPoint(7, 2)
    assert point_contribution(k, 5, point) == point_contribution(k + 7, 5, point)
    assert point_contribution(0, 5, point) == 0


# Dimension tables frozen from the reference candidate lists; chi must
# reproduce them exactly (h^0(kA) = chi(k), dim |kA| = chi(k) - 1).
GOLDEN_DIMS = [
    (9, [(2, 1), (4, 1), (5, 2)], Rational(1, 20), (0, 1, 2, 4, 6, 8, 11, 15, 19)),
    (8, [(3, 1), (3, 1), (5, 1)], Rational(1, 15), (0, 1, 3, 4, 7, 10, 13, 18)),
    (7, [(2, 1), (3, 1)], Rational(1, 6), (1, 3, 6, 10, 15, 22, 30)),
    (6, [(7, 3)], Rational(2, 7), (1, 4, 8, 14, 22, 32)),
    (5, [(2, 1)], Rational(1, 2), (2, 6, 12, 21, 33)),
    (4, [(3, 1)], Rational(2, 3), (2, 6, 13, 23)),
    (3, [(2, 1)], Rational(3, 2), (3, 10, 22)),
]


@pytest.mark.parametrize("q,pairs,a3,expected", GOLDEN_DIMS)
def test_dims_golden(q, pairs, a3, expected):
    fano = FanoInput(q=q, basket=Basket.from_pairs(pairs), a3=a3)
    assert tuple(dims(fano, q)) == expected
    assert genus(fano) == expected[-1] - 1


def test_chi_golden_sequence():
    fano = FanoInput(
        q=9, basket=Basket.from_pairs([(2, 1), (4, 1), (5, 2)]), a3=Rational(1, 20)
    )
    got = [chi_integer(k, fano) for k in range(10)]
    assert got == [1, 1, 2, 3, 5, 7, 9, 12, 16, 20]


def test_chi_non_integral():
    fano = FanoInput(q=3, basket=Basket.from_pairs([(2, 1)]), a3=Rational(1, 2))
    assert chi(1, fano) == Rational(7, 3)
    with pytest.raises(NonIntegralChiError) as exc:
        chi_integer(1, fano)
    assert exc.value.k == 1
    assert exc.value.value == Rational(7, 3)
    with pytest.raises(NonIntegralChiError):
        dims(fano, 3)


@st.composite
def _fano_inputs(draw):
    q = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 17, 19]))
    n_points = draw(st.integers(0, 4))
    pairs = []
    for _ in range(n_points):
        r = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11]))
        if math.gcd(r, q) != 1:
            continue
        a = draw(st.integers(1, r - 1))
        if math.gcd(a, r) != 1:
            continue
        pairs.append((r, a))
    a3 = Rational(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    return FanoInput(q=q, basket=Basket.from_pairs(pairs), a3=a3)


@given(_fano_inputs())
@settings(max_examples=200)
def test_chi_identities(fano):
    assert chi(0, fano) == 1
    for k in range(-fano.q - 6, 7):
        assert chi(k, fano) + chi(-fano.q - k, fano) == 0


@given(_fano_inputs())
@settings(max_examples=200)
def test_chi_matches_reference(fano):
    for k in range(-fano.q - 6, 2 * fano.q + 7):
        assert chi(k, fano) == _reference_chi(k, fano)


def test_chi_is_a_fraction_on_integral_and_fractional_values(full_db):
    # chi builds an integral value from its whole part alone; both kinds of
    # value must be the Fraction the rational formula gives
    kinds = set()
    for c in full_db[::7]:
        # the candidate, integral at every k, and a nearby degree that is not
        off = FanoInput(q=c.q, basket=c.basket, a3=c.a3 + Fraction(1, 11 * c.basket.index_lcm))
        for fano, k in itertools.product((c.fano, off), range(-c.q - 3, 2 * c.q + 4)):
            value = chi(k, fano)
            assert type(value) is Fraction
            assert value == _reference_chi(k, fano)
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1
            kinds.add(value.denominator == 1)
    assert kinds == {True, False}


def test_chi_matches_reference_on_every_candidate(full_db):
    for c in full_db:
        fano = c.fano
        for k in range(-c.q - 12, 13):
            assert chi(k, fano) == _reference_chi(k, fano)
