"""Hilbert series of weighted projective spaces and hypersurfaces in them.

For ``P(w_1, ..., w_n)`` polarized by ``O(1)``, the sections of ``O(k)`` are
the monomials of weighted degree ``k``, so the Hilbert series is
``1 / prod(1 - t^w_i)``.  A general hypersurface of degree ``d`` multiplies
the series by ``(1 - t^d)``.  These coefficient counts are computed here by
two independent routes — literal enumeration of exponent vectors, and a
truncated power-series product — and cross-checked on every call.

This gives an oracle for the Riemann-Roch machinery that never touches it:
for the models in this module, ``h^0(k)`` can be compared against the
Euler characteristic computed from index, degree and singularity data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arith import Rational
from .riemann_roch import chi

if TYPE_CHECKING:  # pragma: no cover
    from .enumeration import Candidate


@dataclass(frozen=True, slots=True)
class WpsModel:
    """A weighted projective space, or a general hypersurface inside one.

    ``degree=None`` means the whole space ``P(weights)``; otherwise the model
    is a degree-``degree`` hypersurface.  Weights are stored sorted, so two
    models with the same weight multiset compare equal.
    """

    weights: tuple[int, ...]
    degree: int | None = None

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("a model needs at least one weight")
        if any(w < 1 for w in self.weights):
            raise ValueError(f"weights must be positive: {self.weights}")
        object.__setattr__(self, "weights", tuple(sorted(self.weights)))
        if self.degree is not None:
            if self.degree < 2:
                raise ValueError(f"hypersurface degree must be >= 2: {self.degree}")
            if self.degree >= sum(self.weights):
                raise ValueError(
                    f"degree {self.degree} leaves no positive Fano index "
                    f"for weights {self.weights}"
                )

    def __str__(self) -> str:
        ws = ",".join(str(w) for w in self.weights)
        if self.degree is None:
            return f"P({ws})"
        return f"X{self.degree} in P({ws})"


def fano_index(model: WpsModel) -> int:
    """Sum of weights minus hypersurface degree (adjunction)."""
    return sum(model.weights) - (model.degree or 0)


def degree_a3(model: WpsModel) -> Rational:
    """Degree ``A^3`` of the polarizing class: ``d / prod(weights)``."""
    return Rational(model.degree or 1, math.prod(model.weights))


def _count_by_enumeration(weights: tuple[int, ...], k: int) -> int:
    """Count exponent vectors with ``sum(e_i * w_i) == k`` by direct walk."""
    if k < 0:
        return 0
    if not weights:
        return 1 if k == 0 else 0
    w, rest = weights[0], weights[1:]
    if not rest:
        return 1 if k % w == 0 else 0
    return sum(_count_by_enumeration(rest, k - e * w) for e in range(k // w + 1))


def _counts_by_series(weights: tuple[int, ...], kmax: int) -> list[int]:
    """Coefficients of ``prod 1/(1 - t^w)`` up to ``t^kmax`` (convolution)."""
    coeffs = [0] * (kmax + 1)
    coeffs[0] = 1
    for w in weights:
        for i in range(w, kmax + 1):
            coeffs[i] += coeffs[i - w]
    return coeffs


def hilbert_coeffs(model: WpsModel, kmax: int) -> list[int]:
    """Return ``[h^0(O(0)), ..., h^0(O(kmax))]`` for the model.

    Both internal routes (enumeration and series expansion) are computed and
    compared; a disagreement would be a bug, not bad input, hence an
    :class:`AssertionError` (raised explicitly so it survives ``python -O``).
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    ambient = _counts_by_series(model.weights, kmax)
    enumerated = [_count_by_enumeration(model.weights, k) for k in range(kmax + 1)]
    if ambient != enumerated:
        raise AssertionError(
            f"hilbert series routes disagree for {model}: {ambient} vs {enumerated}"
        )
    if model.degree is None:
        return ambient
    d = model.degree
    return [ambient[k] - (ambient[k - d] if k >= d else 0) for k in range(kmax + 1)]


@dataclass(frozen=True, slots=True)
class MatchReport:
    """Outcome of checking a model against an enumerated candidate.

    The coefficients are compared only when the index and the degree both
    agree.  Otherwise ``coeffs_match`` is false and ``first_mismatch`` is
    ``None``, as it is on a match; on a compared mismatch it is the first
    ``k`` at which ``h^0`` and ``chi`` differ.
    """

    model: WpsModel
    candidate_id: str
    index_match: bool
    degree_match: bool
    coeffs_match: bool
    first_mismatch: int | None
    checked_up_to: int

    @property
    def is_match(self) -> bool:
        return self.index_match and self.degree_match and self.coeffs_match


def match_candidate(
    model: WpsModel, candidate: "Candidate", kmax: int | None = None
) -> MatchReport:
    """Compare a model's ``h^0`` sequence against a candidate's ``chi``.

    The series side comes from :func:`hilbert_coeffs` alone; the candidate
    side is the Riemann-Roch evaluation, so agreement here is the two-route
    consistency check.  ``kmax`` defaults to ``2q + 5``.  The series is
    computed only once the index and the degree agree.
    """
    q = fano_index(model)
    if kmax is None:
        kmax = 2 * q + 5
    index_match = q == candidate.q
    degree_match = degree_a3(model) == candidate.a3
    first_mismatch = None
    coeffs_match = False
    if index_match and degree_match:
        coeffs = hilbert_coeffs(model, kmax)
        fano = candidate.fano
        first_mismatch = next(
            (k for k in range(kmax + 1) if chi(k, fano) != coeffs[k]), None
        )
        coeffs_match = first_mismatch is None
    return MatchReport(
        model=model,
        candidate_id=candidate.id,
        index_match=index_match,
        degree_match=degree_match,
        coeffs_match=coeffs_match,
        first_mismatch=first_mismatch,
        checked_up_to=kmax,
    )
