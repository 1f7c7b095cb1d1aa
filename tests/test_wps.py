"""Weighted-projective-space oracles.

The ``EXPECTED_H0`` table below was computed by direct monomial counting
(count lattice points of weighted degree k, subtract the degree-(k-d)
count for a hypersurface) and is frozen here; :func:`hilbert_coeffs` must
reproduce it, and internally cross-checks its closed-form series expansion
against that same counting route on every call.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfano
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


def _model(key):
    weights, degree = key
    return WpsModel(weights=weights, degree=degree)


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


def test_route_disagreement_is_caught_under_optimize():
    # python -O strips assert statements; the cross-check must not be one
    script = (
        "import qfano.wps as wps\n"
        "wps._count_by_enumeration = lambda weights, k: 0\n"
        "try:\n"
        "    wps.hilbert_coeffs(wps.WpsModel((1, 1, 2, 3)), 5)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(qfano.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
