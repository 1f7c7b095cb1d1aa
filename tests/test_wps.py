"""Weighted-projective-space oracles.

The ``EXPECTED_H0`` table below was computed by direct monomial counting
(count lattice points of weighted degree k, subtract the degree-(k-d)
count for a hypersurface) and is frozen here; :func:`hilbert_coeffs` must
reproduce it.  ``hilbert_coeffs`` computes only the power-series
convolution; the literal count of exponent vectors, whose cost grows
exponentially with the number of weights, lives here as its oracle,
``_count_by_enumeration``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qfano import wps
from qfano.arith import Rational
from qfano.enumeration import enumerate_candidates
from qfano.wps import WpsModel, degree_a3, fano_index, hilbert_coeffs, match_candidate

# (weights, degree or None) -> h^0(kA) for k = 0 .. 2q + 5
EXPECTED_H0 = {
    ((1, 2, 3, 4, 5), 6): [1, 1, 2, 3, 5, 7, 9, 12, 16, 20, 25, 30, 37, 44,
                           52, 61, 71, 82, 94, 107, 122, 137, 154, 172],
    ((1, 2, 3, 3, 5), 6): [1, 1, 2, 4, 5, 8, 11, 14, 19, 24, 30, 37, 45, 54,
                           64, 76, 88, 102, 118, 134, 153, 173],
    ((1, 2, 3, 5, 7), 10): [1, 1, 2, 3, 4, 6, 8, 11, 14, 18, 22, 27, 33, 39,
                            47, 55, 64, 74, 85, 97, 110, 125],
    ((1, 1, 2, 3), None): [1, 2, 4, 7, 11, 16, 23, 31, 41, 53, 67, 83, 102,
                           123, 147, 174, 204, 237, 274, 314],
    ((1, 2, 2, 3, 5), 6): [1, 1, 3, 4, 7, 10, 14, 19, 25, 32, 41, 50, 62, 74,
                           89, 105, 123, 143, 165, 189],
    ((1, 1, 2, 3, 5), 6): [1, 2, 4, 7, 11, 17, 24, 33, 44, 57, 73, 91, 112,
                           136, 163, 194, 228, 266],
    ((1, 1, 1, 2), None): [1, 3, 7, 13, 22, 34, 50, 70, 95, 125, 161, 203,
                           252, 308, 372, 444],
    ((1, 1, 2, 2, 3), 4): [1, 2, 5, 9, 15, 23, 34, 47, 64, 84, 108, 136, 169,
                           206, 249, 297],
    ((1, 1, 1, 1), None): [1, 4, 10, 20, 35, 56, 84, 120, 165, 220, 286, 364,
                           455, 560],
    ((1, 1, 1, 2, 3), 4): [1, 3, 7, 14, 24, 38, 57, 81, 111, 148, 192, 244,
                           305, 375],
    ((1, 1, 1, 1, 1), 2): [1, 5, 14, 30, 55, 91, 140, 204, 285, 385, 506, 650],
    ((1, 1, 1, 1, 2), 3): [1, 4, 11, 23, 42, 69, 106, 154, 215, 290, 381, 489],
}


#: The models ``wps check`` reads in the benchmark's query mix.
QUERY_MODELS = (
    ((1, 2, 3, 4, 5), 6),
    ((1, 1, 2, 3, 5), 6),
    ((1, 1, 1, 2), None),
    ((1, 2, 3, 5), None),
)


def _model(key):
    weights, degree = key
    return WpsModel(weights=weights, degree=degree)


def _count_by_enumeration(weights, k):
    """Count exponent vectors with ``sum(e_i * w_i) == k`` by direct walk."""
    if k < 0:
        return 0
    w, rest = weights[0], weights[1:]
    if not rest:
        return 1 if k % w == 0 else 0
    return sum(_count_by_enumeration(rest, k - e * w) for e in range(k // w + 1))


def _h0_by_enumeration(model, kmax):
    """``h^0(O(k))`` for ``k = 0 .. kmax`` from the literal monomial count."""
    ambient = [_count_by_enumeration(model.weights, k) for k in range(kmax + 1)]
    d = model.degree
    if d is None:
        return ambient
    return [ambient[k] - (ambient[k - d] if k >= d else 0) for k in range(kmax + 1)]


def test_model_validation():
    with pytest.raises(ValueError):
        WpsModel(weights=())
    with pytest.raises(ValueError):
        WpsModel(weights=(1, 0, 2))
    with pytest.raises(ValueError):
        WpsModel(weights=(1, 1, 1), degree=1)
    with pytest.raises(ValueError):
        WpsModel(weights=(1, 1, 1), degree=3)  # no positive index left
    assert WpsModel(weights=(5, 1, 3)).weights == (1, 3, 5)
    assert str(WpsModel(weights=(1, 2, 3, 4, 5), degree=6)) == "X6 in P(1,2,3,4,5)"
    assert str(WpsModel(weights=(1, 1, 2, 3))) == "P(1,1,2,3)"
    # a changed model is built, and so sorted and checked, like a new one
    model = WpsModel(weights=(1, 1, 2, 3))
    assert model._replace(weights=(5, 1, 3)) == WpsModel(weights=(1, 3, 5))
    with pytest.raises(ValueError):
        model._replace(degree=7)


def test_index_and_degree():
    m = _model(((1, 2, 3, 4, 5), 6))
    assert fano_index(m) == 9
    assert degree_a3(m) == Rational(1, 20)
    p = _model(((1, 1, 2, 3), None))
    assert fano_index(p) == 7
    assert degree_a3(p) == Rational(1, 6)
    plain = _model(((1, 1, 1, 1), None))
    assert fano_index(plain) == 4
    assert degree_a3(plain) == Rational(1)


@pytest.mark.parametrize("key", sorted(EXPECTED_H0), ids=lambda k: str(_model(k)))
def test_hilbert_coeffs_frozen(key):
    model = _model(key)
    expected = EXPECTED_H0[key]
    assert len(expected) == 2 * fano_index(model) + 6
    assert hilbert_coeffs(model, len(expected) - 1) == expected


@pytest.mark.parametrize(
    "key", list(dict.fromkeys([*EXPECTED_H0, *QUERY_MODELS])), ids=lambda k: str(_model(k))
)
def test_series_matches_the_monomial_count(key):
    model = _model(key)
    kmax = 2 * fano_index(model) + 5
    assert hilbert_coeffs(model, kmax) == _h0_by_enumeration(model, kmax)


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(st.integers(1, 7), min_size=1, max_size=5),
    kmax=st.integers(0, 25),
    data=st.data(),
)
def test_series_matches_the_monomial_count_on_random_weights(weights, kmax, data):
    top = sum(weights) - 1
    degree = data.draw(st.none() | st.integers(2, top)) if top >= 2 else None
    model = WpsModel(weights=tuple(weights), degree=degree)
    assert hilbert_coeffs(model, kmax) == _h0_by_enumeration(model, kmax)


def test_surface_dimension_counts():
    # P(1,2,3): dim |t Theta| = t - 1 for t = 1..5, and dim |6 Theta| = 6
    plane = WpsModel(weights=(1, 2, 3))
    assert hilbert_coeffs(plane, 6) == [1, 1, 2, 3, 4, 5, 7]
    # degree-6 surface in P(1,2,3,5): dims t-1 for t = 1..4, then t for t = 5, 6
    # (hand count at t = 6: eight monomials of weight 6 minus the one relation)
    surface = WpsModel(weights=(1, 2, 3, 5), degree=6)
    assert hilbert_coeffs(surface, 6) == [1, 1, 2, 3, 4, 6, 7]


@pytest.mark.parametrize("key", sorted(EXPECTED_H0), ids=lambda k: str(_model(k)))
def test_models_match_unique_candidate(key, full_db):
    model = _model(key)
    q = fano_index(model)
    reports = [match_candidate(model, c) for c in full_db if c.q == q]
    matches = [r for r in reports if r.is_match]
    assert len(matches) == 1
    report = matches[0]
    assert report.index_match and report.degree_match and report.coeffs_match
    assert report.first_mismatch is None
    assert report.checked_up_to == 2 * q + 5


def test_match_rejects_wrong_candidate():
    model = _model(((1, 1, 1, 2), None))  # q = 5, A^3 = 1/2
    candidates = enumerate_candidates(5)
    same_degree = [c for c in candidates if c.a3 == Rational(1, 2)]
    assert len(same_degree) >= 2  # the (2) row and the (2,2,3,6) row
    mismatch = [
        match_candidate(model, c)
        for c in same_degree
        if c.basket.indices != (2,)
    ]
    assert mismatch and all(not r.is_match for r in mismatch)
    assert all(r.first_mismatch is not None for r in mismatch)


def test_match_compares_coefficients_only_at_the_same_index_and_degree(monkeypatch):
    model = _model(((1, 1, 1, 2), None))  # q = 5, A^3 = 1/2
    candidates = enumerate_candidates(5)

    def no_series(*args):
        raise AssertionError("hilbert_coeffs called on a mismatched candidate")

    monkeypatch.setattr(wps, "hilbert_coeffs", no_series)
    other_degree = [c for c in candidates if c.a3 != Rational(1, 2)]
    assert other_degree
    for c in other_degree:
        report = match_candidate(model, c)
        assert report.index_match and not report.degree_match
        assert not report.coeffs_match and not report.is_match
        assert report.first_mismatch is None
    report = match_candidate(model, enumerate_candidates(7)[0])
    assert not report.index_match and not report.coeffs_match
    assert report.first_mismatch is None
