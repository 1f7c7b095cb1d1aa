"""Survey tables: the per-index candidate summaries the classification uses.

Each survey restricts the full candidate list of one Fano index to the range
a particular case analysis needs — a genus floor, sometimes a degree or
basket condition — always within the ambient degree bound ``-K^3 <= 125/2``
(equality admitted).  Orientation decorations that produce identical rows
are collapsed, keeping a multiplicity count.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .arith import Rational, format_rational
from .enumeration import DEGREE_CAP, Candidate, series_class


class Survey(namedtuple("Survey", "key q description extra")):
    """One named per-index selection of candidates.

    ``extra`` is the survey's own condition on a candidate of index ``q``
    within the degree bound.
    """

    __slots__ = ()

    def admits(self, candidate: Candidate) -> bool:
        if candidate.q != self.q:
            return False
        if candidate.minus_k3 > DEGREE_CAP:
            return False
        return self.extra(candidate)


SURVEYS: dict[str, Survey] = {
    s.key: s
    for s in (
        Survey("q3", 3, "g >= 21, basket nonempty", lambda c: c.genus >= 21 and bool(c.basket)),
        Survey("q4", 4, "g >= 22, basket nonempty", lambda c: c.genus >= 22 and bool(c.basket)),
        Survey("q5", 5, "g >= 19", lambda c: c.genus >= 19),
        Survey("q6", 6, "g > 15", lambda c: c.genus > 15),
        Survey(
            "q7",
            7,
            "g > 17, or g = 17 with A^3 = 1/10",
            lambda c: c.genus > 17 or (c.genus == 17 and c.a3 == Rational(1, 10)),
        ),
        Survey(
            "q8",
            8,
            "g >= 10, A^3 != 4/91",
            lambda c: c.genus >= 10 and c.a3 != Rational(4, 91),
        ),
    )
}


class SurveyRow(namedtuple("SurveyRow", "indices a3 dims multiplicity")):
    """One printed table row: orientation decorations already collapsed.

    ``indices`` are the basket indices and ``a3`` the degree.  ``dims`` runs
    over k = 1..q, so the last entry is ``dim |-K|``.  ``multiplicity``
    counts the collapsed decorations (1 for most rows).
    """

    __slots__ = ()

    @property
    def basket_text(self) -> str:
        return "(" + ",".join(str(r) for r in self.indices) + ")" if self.indices else "()"

    def cells(self) -> list[str]:
        row = [self.basket_text, format_rational(self.a3)]
        row.extend(str(d) for d in self.dims)
        if self.multiplicity > 1:
            row.append(f"x{self.multiplicity}")
        return row


def survey_rows(survey: Survey, candidates: Sequence[Candidate]) -> list[SurveyRow]:
    """Select, collapse and sort the table rows for one survey."""
    groups: dict[tuple, int] = {}
    for cand in candidates:
        if not survey.admits(cand):
            continue
        key = series_class(cand)
        groups[key] = groups.get(key, 0) + 1
    rows = [
        SurveyRow(indices=key[1], a3=key[2], dims=key[3], multiplicity=mult)
        for key, mult in groups.items()
    ]
    rows.sort(key=lambda r: (-r.a3, r.indices, r.dims))
    return rows
