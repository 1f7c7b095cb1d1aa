"""Exact arithmetic helpers: rationals and orientations.

Everything downstream (Riemann-Roch sums, degree filters, the link solver)
works over exact rationals; floats never enter the pipeline.  ``Rational``
is stdlib :class:`fractions.Fraction`, which already keeps values in lowest
terms with a positive denominator.  This module adds the plain-text wire
format used in tables and JSON ("n/d", or "n" for integers), the
canonical orientation of a cyclic quotient point, :class:`InputError`,
the base of the errors that mean an input file cannot be used, the one
reader of such a file (:func:`read_input`), and the one rule for reading an
integer from it (:func:`json_integer`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


class InputError(ValueError):
    """A database or case file the tool cannot use; the CLI exits 3 on it.

    It lives here, in the module every other one imports, so the CLI can
    catch the errors of modules it imports only on demand.
    """


def read_input(path, what: str, error: type[InputError]) -> str:
    """The UTF-8 text of the ``what`` at ``path``.  A missing file raises
    ``FileNotFoundError``, which the CLI reports as a missing input; any
    other ``OSError``, or text that is not UTF-8, raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc


def json_integer(value, what: str, error: type[InputError]) -> int:
    """``value`` if it is a JSON integer: ``true``, ``2.0`` and ``"3"`` raise
    ``error`` naming ``what``, where ``int()`` would coerce them."""
    if type(value) is not int:
        raise error(f"{what} must be a JSON integer, got {value!r}")
    return value


class NotCoprimeError(ValueError):
    """Raised when an orientation multiplier shares a factor with the index."""


def format_rational(x: Rational) -> str:
    """Render ``x`` as ``"n/d"`` in lowest terms, or ``"n"`` when integral."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse ``"n/d"`` or ``"n"`` (optional sign on the numerator only)."""
    if not isinstance(text, str):
        raise TypeError(f"not a rational literal: {text!r}")
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = map(int, m.groups("1"))
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def canonical_orientation(a: int, r: int) -> int:
    """Reduce an orientation multiplier to its canonical representative.

    A cyclic quotient point of index ``r`` with multiplier ``a`` is the same
    singularity as the one with multiplier ``r - a``, so the canonical form
    picks the smaller of the two residues: the result lies in
    ``[1, floor(r/2)]`` and is coprime to ``r``.
    """
    if r < 2:
        raise ValueError(f"index must be >= 2, got {r}")
    a = a % r
    if math.gcd(a, r) != 1:
        raise NotCoprimeError(f"multiplier {a} is not coprime to index {r}")
    return min(a, r - a)

