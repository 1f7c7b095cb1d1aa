"""Survey tables: the per-index candidate summaries the classification uses.

Each survey restricts the full candidate list of one Fano index to the range
a particular case analysis needs — a genus floor, sometimes a degree or
basket condition — always within the ambient degree bound ``-K^3 <= 125/2``
(equality admitted).  A table row is a candidate: no two candidates the tool
enumerates share a basket's indices, degree and dimension table, so
orientation decorations never print as equal rows.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .arith import Rational
from .enumeration import Candidate, in_survey_range


class Survey(namedtuple("Survey", "key q description extra")):
    """One named per-index selection of candidates.

    ``extra`` is the survey's own condition on a candidate of index ``q``
    within the degree bound.
    """

    __slots__ = ()

    def admits(self, candidate: Candidate) -> bool:
        return candidate.q == self.q and in_survey_range(candidate) and self.extra(candidate)


SURVEYS: dict[str, Survey] = {
    s.key: s
    for s in (
        Survey("q3", 3, "g >= 21, basket nonempty", lambda c: c.genus >= 21 and bool(c.basket.points)),
        Survey("q4", 4, "g >= 22, basket nonempty", lambda c: c.genus >= 22 and bool(c.basket.points)),
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


def survey_rows(survey: Survey, candidates: Sequence[Candidate]) -> list[Candidate]:
    """The candidates one survey admits, in table order."""
    rows = [c for c in candidates if survey.admits(c)]
    rows.sort(key=lambda c: (-c.a3, c.basket.indices, c.dims))
    return rows
