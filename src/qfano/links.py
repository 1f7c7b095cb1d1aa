"""Bounded integer search over the numerology of two-ray link diagrams.

A link case bundles the linear identities a birational two-ray diagram
imposes between the source index ``q``, the target index ``qhat``, the
exceptional multiplicity ``e``, the transformed-system degrees ``s_k``,
slack variables ``m_k``, and the discrepancy ``alpha``:

    qhat = 9*s1 + a1*e        (and more relations of the same shape)

together with database-backed dimension constraints ("the image of |kA|
on the target moves at least as much as it did on the source") and an
optional genus transfer (``g(target) >= g(source)`` whenever alpha < 1).
:func:`solve` enumerates every assignment within the declared bounds, one
branch ``(qhat, alpha)`` at a time; an empty result eliminates the case.
The database enters only through :func:`dims_lookup`, whose ``None`` ("no
candidate qualifies") is itself an elimination.  :func:`audit` re-verifies
any claimed solution independently of the search.  A command resolves the
source candidate once, builds one :func:`dims_table` and hands the two to
both, so neither the source nor any key is looked up twice.  The table
groups the rows by index once, so each key scans only the rows of its
target index.

Expressions use ``+``, ``*``, non-negative integer literals, declared
variable names, the token ``alpha``, and parentheses.  The parser multiplies
each relation out into its polynomial in the unknowns and ``alpha``, with
non-negative integer coefficients.  For each alpha the search compiles that
polynomial into one over the unknowns alone, with the coefficients alpha
brings in scaled by their common denominator ``d``, so a branch
``(qhat, alpha)`` only asks for the value ``qhat * d`` and every search node
is plain ``int`` arithmetic.  Alpha is positive, so every coefficient is
non-negative; with non-negative unknowns each relation is then monotone in
every variable.  The search relies on that twice: a relation lies between
its values at the corners of the remaining box, and a variable's value loop
stops at the first value whose low corner passes the target.  :func:`audit`
refuses any unknown that is not an ``int`` and evaluates the parsed
polynomials at the integer values and the rational alpha, exactly, with none
of the search's scaling or pruning.

Case documents are strict JSON: integer fields must be JSON integers,
``genus_transfer`` a JSON boolean, and a key the format does not define is
refused rather than ignored.  So is an empty ``index_set``, or an entry
outside ``INDEX_SET``, where no candidate is enumerated to eliminate.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from collections import namedtuple
from typing import Callable, Iterator, Mapping, Sequence

from .arith import InputError, Rational, format_rational, json_integer, parse_rational, read_input
from .enumeration import INDEX_SET, Candidate
from .riemann_roch import SingularPoint


class LinkCaseError(InputError):
    """Malformed case file: syntax, undeclared names, bad references."""


class UnboundedCaseError(LinkCaseError):
    """An unknown is missing a finite lower or upper bound."""


# ---------------------------------------------------------------------------
# expression mini-language


_TOKEN_RE = re.compile(r"\s*(?:\d+|[A-Za-z_][A-Za-z_0-9]*|[()+*=])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise LinkCaseError(f"bad token at {rest[:12]!r} in {text!r}")
        tokens.append(m.group(0).strip())
        pos = m.end()
    return tokens


#: Deepest parenthesis nesting an expression may use.  The parser recurses
#: once per level, so the cap keeps a hostile case file a LinkCaseError
#: instead of a RecursionError.
MAX_NESTING = 100

#: Most monomial pairs one product may form.  Multiplying out is the only
#: step whose cost is not linear in the text (ten factors of an eight-name
#: sum give 19,448 monomials), so a product past this is refused before it
#: is formed.  The shipped cases form at most a few pairs per product.
MAX_PRODUCT_PAIRS = 10_000

#: Most values one solve may try, over all its branches: each value a
#: dimension floor's scan or the assignment of an unknown sets counts once.
#: An unknown's bounds are any integers the case file gives, and an unknown
#: no relation names makes every value in its range a solution, so without
#: the cap the work and the solution list would grow with the bounds.  The
#: shipped cases try 783, 0 and 314 values.
MAX_SEARCH_NODES = 10_000


class _Parser:
    """Multiplies an expression out into a polynomial as it parses it.

    The polynomial maps each monomial, a sorted tuple of names (``alpha``
    among them), to its integer coefficient.  Zero coefficients stay, so the
    names in ``0*z`` are still checked against the declared ones.
    """

    def __init__(self, tokens: list[str], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise LinkCaseError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def expr(self) -> dict[tuple[str, ...], int]:
        poly = self.term()
        while self.peek() == "+":
            self.take()
            for names, coef in self.term().items():
                poly[names] = poly.get(names, 0) + coef
        return poly

    def term(self) -> dict[tuple[str, ...], int]:
        poly = self.factor()
        while self.peek() == "*":
            self.take()
            factor = self.factor()
            pairs = len(poly) * len(factor)
            if pairs > MAX_PRODUCT_PAIRS:
                raise LinkCaseError(
                    f"a product in {self.text!r} forms {pairs} monomial pairs, "
                    f"more than {MAX_PRODUCT_PAIRS}"
                )
            product: dict[tuple[str, ...], int] = {}
            for names, coef in poly.items():
                for more, by in factor.items():
                    key = tuple(sorted(names + more))
                    product[key] = product.get(key, 0) + coef * by
            poly = product
        return poly

    def factor(self) -> dict[tuple[str, ...], int]:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise LinkCaseError(f"parentheses nested deeper than {MAX_NESTING}")
            inner = self.expr()
            if self.take() != ")":
                raise LinkCaseError(f"missing ')' in {self.text!r}")
            self.depth -= 1
            return inner
        if tok.isdigit():
            return {(): int(tok)}
        if tok.isidentifier():
            return {(tok,): 1}
        raise LinkCaseError(f"unexpected token {tok!r} in {self.text!r}")


def parse_expression(text: str) -> dict[tuple[str, ...], int]:
    """The polynomial of ``+``/``*``/parenthesis arithmetic over ints, names, alpha."""
    parser = _Parser(_tokenize(text), text)
    poly = parser.expr()
    if parser.peek() is not None:
        raise LinkCaseError(f"trailing input {parser.peek()!r} in {text!r}")
    return poly


class Relation(namedtuple("Relation", "text rhs")):
    """One identity ``qhat = <expression>``: its text and its polynomial."""

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "Relation":
        lhs, sep, rhs_text = text.partition("=")
        if not sep or lhs.strip() != "qhat":
            raise LinkCaseError(f"relation must have the form 'qhat = ...': {text!r}")
        return cls(text=text.strip(), rhs=parse_expression(rhs_text))


# ---------------------------------------------------------------------------
# case model


#: An unknown ``name`` with its bounds ``lo <= value <= hi``.
Unknown = namedtuple("Unknown", "name lo hi note", defaults=("",))

#: dim of the ``var``-th multiple on the target >= dim|kA| on the source, at
#: ``k = source_k``, over targets of genus at least ``genus_min``.
DimConstraint = namedtuple("DimConstraint", "var source_k genus_min", defaults=(0,))


class SourceRef(namedtuple("SourceRef", "q indices a3 pairs", defaults=(None,))):
    """How a case file names its source candidate.

    The basket may be given as bare indices ``[2, 4, 5]`` or, when
    orientation twins share the same indices and degree, as decorated
    pairs ``[[2, 1], [4, 1], [5, 2]]``.  Each pair is kept as a
    :class:`~qfano.riemann_roch.SingularPoint`, so the mirror spelling
    ``[r, r - a]`` names the same point.
    """

    __slots__ = ()

    def resolve(self, db: Sequence[Candidate]) -> Candidate:
        matches = [
            c
            for c in db
            if c.q == self.q and c.basket.indices == self.indices and c.a3 == self.a3
            and (self.pairs is None or tuple((p.r, p.a) for p in c.basket.points) == self.pairs)
        ]
        if not matches:
            raise LinkCaseError(f"source candidate not in database: {self}")
        if len(matches) > 1:
            raise LinkCaseError(f"ambiguous source candidate reference: {self}")
        return matches[0]


class LinkCase(
    namedtuple(
        "LinkCase",
        "name q source alpha_options unknowns relations dim_constraints "
        "target_index_set genus_transfer threshold_floor notes",
        defaults=(None, ""),
    )
):
    """A parsed case file; construction refuses an inconsistent one."""

    __slots__ = ()
    # so that _replace, which builds through _make, checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> "LinkCase":
        self = super().__new__(cls, *args, **kwargs)
        if self.threshold_floor is not None and self.threshold_floor < 1:
            raise LinkCaseError(f"threshold_floor must be positive, got {self.threshold_floor}")
        names = [u.name for u in self.unknowns]
        if len(set(names)) != len(names):
            raise LinkCaseError(f"duplicate unknown names in case {self.name!r}")
        if "alpha" in names or "qhat" in names:
            raise LinkCaseError("'alpha' and 'qhat' are reserved names")
        declared = set(names) | {"alpha"}
        for unk in self.unknowns:
            if unk.lo < 0 or unk.hi < unk.lo:
                raise LinkCaseError(f"bad bounds for {unk.name!r}: [{unk.lo}, {unk.hi}]")
        for rel in self.relations:
            undeclared = {name for names in rel.rhs for name in names} - declared
            if undeclared:
                raise LinkCaseError(
                    f"relation {rel.text!r} uses undeclared names {sorted(undeclared)}"
                )
        for con in self.dim_constraints:
            if con.var not in names:
                raise LinkCaseError(f"dim constraint on undeclared variable {con.var!r}")
            if con.source_k < 0:
                raise LinkCaseError("dim constraint source power must be >= 0")
        if not self.alpha_options:
            raise LinkCaseError("a case needs at least one alpha option")
        if any(alpha <= 0 for alpha in self.alpha_options):
            # a discrepancy is positive, and the search's pruning needs
            # every compiled coefficient to be non-negative
            raise LinkCaseError("alpha options must be positive")
        # a repeated branch would be searched twice and each solution printed twice
        if len(set(self.alpha_options)) != len(self.alpha_options):
            raise LinkCaseError("alpha options repeat a value")
        if not self.target_index_set:
            # no branch would be searched: an elimination would be vacuous
            raise LinkCaseError("index_set is empty")
        if len(set(self.target_index_set)) != len(self.target_index_set):
            raise LinkCaseError("index_set repeats an entry")
        outside = sorted(set(self.target_index_set) - set(INDEX_SET))
        if outside:
            # the tool enumerates no candidate there: an elimination would be vacuous
            raise LinkCaseError(f"index_set entries {outside} are not in {INDEX_SET}")
        if self.source.q != self.q:
            raise LinkCaseError("source candidate index differs from case index")
        return self


_CASE_KEYS = frozenset({
    "name", "q", "source", "alpha", "unknowns", "relations", "dim_constraints",
    "index_set", "genus_transfer", "threshold_floor", "notes",
})
_SOURCE_KEYS = frozenset({"q", "basket", "a3"})
_UNKNOWN_KEYS = frozenset({"name", "min", "max", "note"})


def _fields(obj, allowed: frozenset[str], what: str) -> dict:
    """``obj`` as a JSON object using only ``allowed`` keys (a typo is an error)."""
    if not isinstance(obj, dict):
        raise LinkCaseError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise LinkCaseError(f"{what} has unknown keys {sorted(unknown)}")
    return obj


_integer = functools.partial(json_integer, error=LinkCaseError)


def load_case(text: str) -> LinkCase:
    """Parse a case document (JSON object notation)."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode
        raise LinkCaseError(f"case file is not valid JSON: {exc}") from exc
    try:
        raw = _fields(raw, _CASE_KEYS, "case file")
        src = _fields(raw["source"], _SOURCE_KEYS, "source")
        basket_raw = list(src["basket"])
        if basket_raw and isinstance(basket_raw[0], (list, tuple)):
            # a pair that is not a point (a multiplier not coprime to its
            # index) is a malformed value, not a point missing from the database
            pairs = tuple(sorted(
                SingularPoint(_integer(r, "basket index"), _integer(a, "basket orientation"))
                for r, a in basket_raw
            ))
            indices = tuple(r for r, _ in pairs)
        else:
            pairs = None
            indices = tuple(sorted(_integer(r, "basket index") for r in basket_raw))
        source = SourceRef(
            q=_integer(src["q"], "source q"),
            indices=indices,
            a3=parse_rational(str(src["a3"])),
            pairs=pairs,
        )
        unknowns = []
        for u in raw["unknowns"]:
            u = _fields(u, _UNKNOWN_KEYS, "unknown")
            name = str(u["name"])
            if u.get("min") is None or u.get("max") is None:
                raise UnboundedCaseError(
                    f"unknown {name!r} needs explicit min and max bounds"
                )
            unknowns.append(
                Unknown(name=name, lo=_integer(u["min"], f"min of {name!r}"),
                        hi=_integer(u["max"], f"max of {name!r}"),
                        note=str(u.get("note", "")))
            )
        unknowns = tuple(unknowns)
        genus_transfer = raw.get("genus_transfer", False)
        if not isinstance(genus_transfer, bool):
            raise LinkCaseError(
                f"genus_transfer must be a JSON boolean, got {genus_transfer!r}"
            )
        return LinkCase(
            name=str(raw.get("name", "unnamed case")),
            q=_integer(raw["q"], "q"),
            source=source,
            alpha_options=tuple(
                sorted(parse_rational(str(a)) for a in raw["alpha"])
            ),
            unknowns=unknowns,
            relations=tuple(Relation.parse(str(r)) for r in raw["relations"]),
            dim_constraints=tuple(
                DimConstraint(var=str(v), source_k=_integer(k, "dim constraint power"),
                              genus_min=_integer(g, "dim constraint genus floor"))
                for v, k, g in raw.get("dim_constraints", [])
            ),
            target_index_set=tuple(
                sorted(_integer(q, "index_set entry")
                       for q in raw.get("index_set", INDEX_SET))
            ),
            genus_transfer=genus_transfer,
            threshold_floor=(_integer(raw["threshold_floor"], "threshold_floor")
                             if "threshold_floor" in raw else None),
            notes=str(raw.get("notes", "")),
        )
    except LinkCaseError:
        raise
    except KeyError as exc:
        raise LinkCaseError(f"case file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise LinkCaseError(f"case file has a malformed value: {exc}") from exc


def load_case_file(path) -> LinkCase:
    return load_case(read_input(path, "case file", LinkCaseError))


class LinkSolution(namedtuple("LinkSolution", "qhat assignment alpha")):
    """A satisfying assignment: target index, unknowns, discrepancy."""

    __slots__ = ()

    def sort_key(self):
        return (self.qhat, tuple(v for _, v in self.assignment), self.alpha)


# ---------------------------------------------------------------------------
# database lookups


def dims_lookup(
    db: Sequence[Candidate], qhat: int, s: int, genus_min: int = 0
) -> int | None:
    """Largest ``dim |s*A|`` over candidates with index ``qhat``, genus floor.

    ``None`` when no candidate qualifies, which is itself an elimination of
    the target index at that genus.
    """
    return max(
        (c.dim(s) for c in db if c.q == qhat and c.genus >= genus_min), default=None
    )


def dims_table(db: Sequence[Candidate]) -> Callable[[int, int, int], int | None]:
    """:func:`dims_lookup` over ``db``, each ``(qhat, s, genus_min)`` scanned once.

    The rows are grouped by index once, so a key scans only the rows of its
    ``qhat``.  One table serves a whole command, so :func:`audit` reads the
    values :func:`solve` already looked up.
    """
    by_index: dict[int, list[Candidate]] = {}
    for c in db:
        by_index.setdefault(c.q, []).append(c)

    @functools.cache
    def lookup(qhat: int, s: int, genus_min: int) -> int | None:
        return dims_lookup(by_index.get(qhat, ()), qhat, s, genus_min)

    return lookup


# ---------------------------------------------------------------------------
# the solver


#: A compiled relation: integer ``(coefficient, unknown positions)`` terms.
_Terms = tuple[tuple[int, tuple[int, ...]], ...]


def _compile(
    rhs: dict[tuple[str, ...], int], alpha: Rational, position: Mapping[str, int]
) -> tuple[_Terms, int]:
    """``rhs`` at ``alpha`` as integer terms ``(coef, positions)`` and a scale ``d``.

    ``d`` is the lcm of the coefficient denominators, so ``rhs == qhat``
    exactly when the terms sum to ``qhat * d``.
    """
    poly: dict[tuple[int, ...], Rational] = {}
    for names, coef in rhs.items():
        mono = tuple(sorted(position[name] for name in names if name != "alpha"))
        poly[mono] = poly.get(mono, 0) + coef * alpha ** names.count("alpha")
    scale = math.lcm(*(c.denominator for c in poly.values()))
    terms = tuple(
        (int(coef * scale), mono) for mono, coef in sorted(poly.items()) if coef
    )
    return terms, scale


def _evaluate(terms: _Terms, values: Sequence[int]) -> int:
    total = 0
    for coef, positions in terms:
        for p in positions:
            coef *= values[p]
        total += coef
    return total


def _genus_floor(case: LinkCase, source: Candidate, alpha: Rational, base: int) -> int:
    """The genus floor at the target: the source genus carries over when alpha < 1."""
    if case.genus_transfer and alpha < 1:
        return max(base, source.genus)
    return base


def _branch(
    case: LinkCase, source: Candidate, lookup: Callable[[int, int, int], int | None],
    compiled: Sequence[tuple[_Terms, int]], qhat: int, alpha: Rational, nodes: Iterator[int],
) -> Iterator[tuple[int, ...]]:
    """The unknowns' values of every solution of the branch ``(qhat, alpha)``.

    In order: the genus-transfer gate, the dimension floors, the search over
    the ``compiled`` relations, and the exact re-check of the dimension
    constraints on each assignment the search proposes.  The search checks
    the root box once, then each value as it is set: a low corner past its
    target ends the variable's loop, a high corner short of it skips the value.
    ``nodes`` counts the values tried, and is shared by every branch of one
    solve: past :data:`MAX_SEARCH_NODES` the case is refused with a
    :class:`LinkCaseError`.
    """
    if case.genus_transfer and alpha < 1 and lookup(qhat, 0, source.genus) is None:
        return  # no target at qhat supports the transferred genus
    position = {u.name: i for i, u in enumerate(case.unknowns)}
    floors = [
        (position[con.var], source.dim(con.source_k),
         _genus_floor(case, source, alpha, con.genus_min))
        for con in case.dim_constraints
    ]

    def meets(s: int, need: int, gmin: int) -> bool:
        got = lookup(qhat, s, gmin)
        return got is not None and got >= need

    def tried() -> None:
        if next(nodes) > MAX_SEARCH_NODES:
            raise LinkCaseError(
                f"case {case.name!r} tries more than {MAX_SEARCH_NODES} values "
                f"(at qhat={qhat}, alpha={format_rational(alpha)}); narrow the unknowns' bounds"
            )

    # per-variable bounds, tightened by the dimension floors
    lo = [u.lo for u in case.unknowns]
    hi = [u.hi for u in case.unknowns]
    for idx, need, gmin in floors:
        for s in range(lo[idx], hi[idx] + 1):
            tried()
            if meets(s, need, gmin):
                lo[idx] = s
                break
        else:
            return  # no value of the variable reaches the dimension needed

    relations = [(terms, qhat * scale) for terms, scale in compiled]
    lo_vals = list(lo)
    hi_vals = list(hi)

    def assign(idx: int) -> Iterator[tuple[int, ...]]:
        if idx == len(lo):
            # lo_vals == hi_vals here, so every relation holds exactly
            yield tuple(lo_vals)
            return
        for value in range(lo[idx], hi[idx] + 1):
            tried()
            lo_vals[idx] = hi_vals[idx] = value
            if any(_evaluate(terms, lo_vals) > target for terms, target in relations):
                break
            if all(_evaluate(terms, hi_vals) >= target for terms, target in relations):
                yield from assign(idx + 1)
        lo_vals[idx] = lo[idx]
        hi_vals[idx] = hi[idx]

    # every coefficient is >= 0, so over the box of remaining values a
    # relation ranges between its two corner values
    if any(not _evaluate(t, lo_vals) <= target <= _evaluate(t, hi_vals) for t, target in relations):
        return
    for found in assign(0):
        # final exact re-check of the dimension constraints
        if all(meets(found[idx], need, gmin) for idx, need, gmin in floors):
            yield found


def solve(
    case: LinkCase, source: Candidate,
    lookup: Callable[[int, int, int], int | None],
) -> list[LinkSolution]:
    """Every in-bounds assignment satisfying all relations and constraints.

    Deterministic: results come back sorted by (qhat, unknown values in
    declaration order, alpha).  An empty list eliminates the case.
    ``source`` is ``case.source.resolve(db)`` and ``lookup`` a
    :func:`dims_table` of the same ``db``.
    """
    names = [u.name for u in case.unknowns]
    position = {name: i for i, name in enumerate(names)}
    solutions: list[LinkSolution] = []
    nodes = itertools.count(1)
    for alpha in case.alpha_options:
        compiled = [_compile(rel.rhs, alpha, position) for rel in case.relations]
        for qhat in case.target_index_set:
            solutions.extend(
                LinkSolution(qhat=qhat, assignment=tuple(zip(names, found)), alpha=alpha)
                for found in _branch(case, source, lookup, compiled, qhat, alpha, nodes)
            )
    solutions.sort(key=LinkSolution.sort_key)
    return solutions


def audit(
    case: LinkCase, solution: LinkSolution, source: Candidate,
    lookup: Callable[[int, int, int], int | None],
) -> bool:
    """Independently re-verify one claimed solution against case and database.

    Bounds, relations and genus floors are checked here.  Every unknown
    must be an ``int`` (a ``bool``, ``float`` or ``Fraction`` is refused),
    and each relation's parsed polynomial is evaluated at those integers and
    the ``Fraction`` alpha, exactly, with none of the search's scaling,
    positions or pruning.  The database enters as in :func:`solve`: the
    resolved ``source`` and ``lookup``, a :func:`dims_table` of its ``db``.
    """
    if solution.qhat not in case.target_index_set:
        return False
    if solution.alpha not in case.alpha_options:
        return False
    values = dict(solution.assignment)
    bounds = {u.name: (u.lo, u.hi) for u in case.unknowns}
    if set(values) != set(bounds):
        return False
    for name, value in values.items():
        lo, hi = bounds[name]
        if type(value) is not int or not lo <= value <= hi:
            return False
    env = values | {"alpha": solution.alpha}
    if any(
        sum(coef * math.prod(env[name] for name in names) for names, coef in rel.rhs.items())
        != solution.qhat
        for rel in case.relations
    ):
        return False
    if case.genus_transfer and solution.alpha < 1:
        if lookup(solution.qhat, 0, source.genus) is None:
            return False
    for con in case.dim_constraints:
        gmin = _genus_floor(case, source, solution.alpha, con.genus_min)
        got = lookup(solution.qhat, values[con.var], gmin)
        if got is None or got < source.dim(con.source_k):
            return False
    return True


def feasible_indices(solutions: Sequence[LinkSolution]) -> list[int]:
    """The distinct target indices among the solutions, ascending."""
    return sorted({s.qhat for s in solutions})


def describe_case(case: LinkCase) -> str:
    """One-paragraph human summary of a loaded case."""
    lines = [f"case: {case.name}", f"source: q={case.q} {case.source.indices} A^3={format_rational(case.source.a3)}"]
    lines.append("alpha options: " + ", ".join(format_rational(a) for a in case.alpha_options))
    if case.threshold_floor is not None:
        lines.append(f"canonical-threshold floor: c <= 1/{case.threshold_floor}")
    lines.append("unknowns: " + ", ".join(f"{u.name} in [{u.lo},{u.hi}]" for u in case.unknowns))
    for rel in case.relations:
        lines.append("relation: " + rel.text)
    for con in case.dim_constraints:
        lines.append(
            f"dim constraint: dim|{con.var}*Theta| >= dim|{con.source_k}A|"
            + (f" (genus >= {con.genus_min})" if con.genus_min else "")
        )
    lines.append(f"genus transfer: {'on' if case.genus_transfer else 'off'}")
    if case.notes:
        lines.append("notes: " + case.notes)
    return "\n".join(lines)
