import functools
import json
import math
import re
import time
from importlib.resources import files
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from qfano import links
from qfano.arith import Rational
from qfano.enumeration import INDEX_SET
from qfano.links import (
    LinkCase,
    LinkCaseError,
    LinkSolution,
    MAX_NESTING,
    MAX_PRODUCT_PAIRS,
    MAX_SEARCH_NODES,
    Relation,
    SourceRef,
    UnboundedCaseError,
    audit,
    describe_case,
    dims_lookup,
    dims_table,
    feasible_indices,
    load_case,
    load_case_file,
    parse_expression,
    solve,
)


def case_path(name):
    return files("qfano").joinpath("cases").joinpath(name)


def make_case_text(**overrides):
    doc = {
        "name": "toy",
        "q": 6,
        "source": {"q": 6, "basket": [7], "a3": "2/7"},
        "alpha": ["1"],
        "unknowns": [
            {"name": "s1", "min": 0, "max": 5},
            {"name": "e", "min": 1, "max": 3},
        ],
        "relations": ["qhat = s1 + e"],
        "index_set": [3, 4, 5],
        "genus_transfer": False,
    }
    doc.update(overrides)
    return json.dumps(doc)


WIDE = [{"name": "s1", "min": 0, "max": 13}, {"name": "e", "min": 1, "max": 3}]


# ---------------------------------------------------------------------------
# the tests' own reading of an expression, sharing no code with links

#: Leading zeros of an integer literal: "007" is 7 to a case file and a
#: syntax error to Python.
_LEADING_ZEROS = re.compile(r"\b0+(?=\d)")


@functools.cache
def _compiled_text(text):
    # ints, names, + and * are Python syntax; the outer parentheses let the
    # text span lines
    return compile("(" + _LEADING_ZEROS.sub("", text) + ")", "<relation>", "eval")


def _text_value(text, env):
    """``text`` evaluated by Python with ``env``'s values bound, as a Fraction."""
    return Rational(eval(_compiled_text(text), {"__builtins__": {}}, dict(env)))


def _rhs_text(relation):
    return relation.text.partition("=")[2]


def _poly_value(poly, env):
    return sum(coef * math.prod(env[name] for name in names) for names, coef in poly.items())


# ---------------------------------------------------------------------------
# expression grammar


@pytest.mark.parametrize(
    "text, env, value",
    [
        ("3", {}, 3),
        ("e", {"e": Rational(4)}, 4),
        ("2*e + 5", {"e": Rational(3)}, 11),
        ("(2 + e) * alpha", {"e": Rational(1), "alpha": Rational(1, 3)}, 1),
        ("9*s1 + a1*e", {"s1": Rational(1), "a1": Rational(2), "e": Rational(3)}, 15),
        ("(35 + m1)*alpha*e", {"m1": Rational(1), "alpha": Rational(1, 6), "e": Rational(1)}, 6),
        ("007*e + 010", {"e": Rational(2)}, 24),
    ],
)
def test_parse_expression_values(text, env, value):
    assert _poly_value(parse_expression(text), env) == _text_value(text, env) == value


def test_parse_expression_names():
    # each monomial is the sorted tuple of its names; products are multiplied out
    assert parse_expression("9*s1 + a1*e + 4") == {("s1",): 9, ("a1", "e"): 1, (): 4}
    assert parse_expression("(e + alpha)*(e + 2) + e*alpha") == {
        ("e", "e"): 1, ("e",): 2, ("alpha", "e"): 2, ("alpha",): 2,
    }
    # a zero coefficient keeps its monomial, so its names are still checked
    assert parse_expression("0*z + 3") == {("z",): 0, (): 3}


@pytest.mark.parametrize(
    "text",
    ["", "1 +", "(2", "2)", "x y", "1 - 2", "2 ** 3", "1.5", "qhat ="],
)
def test_parse_expression_rejects(text):
    with pytest.raises(LinkCaseError):
        parse_expression(text)


def test_parse_expression_nesting_is_capped():
    # at the cap the parser still multiplies out alternating sums and
    # products nested as deep as the parentheses
    deep = "1 + 2*(" * MAX_NESTING + "e" + ")" * MAX_NESTING
    poly = parse_expression(deep)
    assert _poly_value(poly, {"e": 0}) == _text_value(deep, {"e": 0}) == 2**MAX_NESTING - 1
    assert links._compile(poly, Rational(1), {"e": 0}) == (
        ((2**MAX_NESTING - 1, ()), (2**MAX_NESTING, (0,))), 1
    )
    too_deep = "(" * (MAX_NESTING + 1) + "e" + ")" * (MAX_NESTING + 1)
    with pytest.raises(LinkCaseError, match="nested deeper"):
        parse_expression(too_deep)


def test_parse_expression_products_are_capped():
    # ten factors of an eight-name sum would multiply out to C(17, 7) =
    # 19,448 monomials; the product that first passes the cap is refused
    # before it is formed
    sum8 = "(" + " + ".join("abcdefgh") + ")"
    started = time.monotonic()
    with pytest.raises(LinkCaseError, match=f"more than {MAX_PRODUCT_PAIRS}"):
        Relation.parse("qhat = " + "*".join([sum8] * 10))
    assert time.monotonic() - started < 0.2
    # a product at the cap is still formed
    square = "(" + " + ".join(f"x{i}" for i in range(100)) + ")"
    assert 100 * 100 == MAX_PRODUCT_PAIRS
    assert len(parse_expression(f"{square}*{square}")) == 100 * 101 // 2


def test_relation_parse():
    rel = Relation.parse("qhat = 6*s1 + (35 + m1)*alpha*e")
    assert rel.rhs == {("s1",): 6, ("alpha", "e"): 35, ("alpha", "e", "m1"): 1}
    with pytest.raises(LinkCaseError):
        Relation.parse("x = s1 + e")
    with pytest.raises(LinkCaseError):
        Relation.parse("qhat + s1")
    with pytest.raises(LinkCaseError) as refused:
        Relation.parse("qhat = (a b")
    assert str(refused.value) == "missing ')' in ' (a b'"
    # blanks after the last token end the text; they are not a bad token
    assert Relation.parse("qhat = a + b  ") == ("qhat = a + b", {("a",): 1, ("b",): 1})


# ---------------------------------------------------------------------------
# case validation


def test_load_case_roundtrip():
    case = load_case(make_case_text())
    assert case.name == "toy"
    assert case.q == 6
    assert case.target_index_set == (3, 4, 5)
    assert [u.name for u in case.unknowns] == ["s1", "e"]
    assert "relation: qhat = s1 + e" in describe_case(case)
    # a changed case is checked like a new one
    assert case._replace(notes="changed").notes == "changed"
    with pytest.raises(LinkCaseError, match="reserved"):
        case._replace(unknowns=(*case.unknowns, case.unknowns[0]._replace(name="qhat")))


@pytest.mark.parametrize("field, value, message", [
    ("q", 8, "source candidate index differs from case index"),
    ("threshold_floor", -3, "threshold_floor must be positive, got -3"),
    ("target_index_set", (), "index_set is empty"),
])
def test_replace_checks_the_case_level_fields(field, value, message):
    case = load_case_file(case_path("q9_4A.case"))
    with pytest.raises(LinkCaseError, match=message):
        case._replace(**{field: value})


def test_load_case_missing_bounds_is_unbounded():
    text = make_case_text(unknowns=[{"name": "s1", "min": 0}])
    with pytest.raises(UnboundedCaseError):
        load_case(text)


E_UNKNOWN = {"name": "e", "min": 1, "max": 3}


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha": []},
        {"relations": ["qhat = s1 + zz"]},
        {
            "unknowns": [
                {"name": "s1", "min": 0, "max": 5},
                {"name": "s1", "min": 0, "max": 5},
            ]
        },
        {"unknowns": [{"name": "alpha", "min": 0, "max": 5}]},
        {"unknowns": [{"name": "s1", "min": 3, "max": 1}]},
        {"dim_constraints": [["zz", 1, 0]]},
        {"q": 7},  # disagrees with the source candidate's index
        # JSON types are not coerced: bool("false") is true, int(40.7) is 40
        {"genus_transfer": "false"},
        {"genus_transfer": 1},
        {"unknowns": [{"name": "s1", "min": 0, "max": 40.7}, E_UNKNOWN]},
        {"unknowns": [{"name": "s1", "min": True, "max": 5}, E_UNKNOWN]},
        {"unknowns": [{"name": "s1", "min": "0", "max": 5}, E_UNKNOWN]},
        {"q": 6.0},
        {"source": {"q": "6", "basket": [7], "a3": "2/7"}},
        {"source": {"q": 6, "basket": [7.0], "a3": "2/7"}},
        {"dim_constraints": [["s1", 1.0, 0]]},
        {"dim_constraints": [["s1", 1, False]]},
        {"index_set": [3, 4.0]},
        {"index_set": [True]},
        {"threshold_floor": 0},  # read as absent before
        {"threshold_floor": -6},
        {"threshold_floor": 6.0},
        {"threshold_floor": None},
        # a misspelt key is refused, not ignored
        {"genus_tranfer": True},
        {"source": {"q": 6, "basket": [7], "a3": "2/7", "orientation": 1}},
        {"unknowns": [{"name": "s1", "min": 0, "max": 5, "mx": 9}, E_UNKNOWN]},
        # the search prunes on non-negative coefficients
        {"alpha": ["-1/2"]},
        {"alpha": ["0"]},
        # no candidate is enumerated outside INDEX_SET: a vacuous elimination
        {"index_set": [2, 12]},
        {"index_set": [20]},
        # a repeated branch would be searched, and its solutions printed, twice
        {"index_set": [5, 5]},
        {"alpha": ["1/2", "2/4"], "index_set": [5]},
        # no branch would be searched: a vacuous elimination
        {"index_set": []},
    ],
)
def test_load_case_validation_errors(overrides):
    with pytest.raises(LinkCaseError):
        load_case(make_case_text(**overrides))


def test_load_case_refuses_a_negative_dim_constraint_power():
    unknowns = [*WIDE, {"name": "s2", "min": 0, "max": 5}]
    with pytest.raises(LinkCaseError) as refused:
        load_case(make_case_text(unknowns=unknowns, dim_constraints=[["s2", -1, 0]]))
    assert str(refused.value) == "dim constraint source power must be >= 0"


def test_load_case_file_of_a_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_case_file(tmp_path / "missing.case")


def test_load_case_rejects_bad_json():
    with pytest.raises(LinkCaseError):
        load_case("not json at all {")
    with pytest.raises(LinkCaseError):
        load_case("{}")


def test_source_resolve_errors(full_db):
    missing = SourceRef(q=6, indices=(23,), a3=Rational(1, 23))
    with pytest.raises(LinkCaseError):
        missing.resolve(full_db)


#: The default set's one pair of orientation twins: equal q, indices and A^3.
TWINS = ["q4-5.1_15.2-a2.15", "q4-5.1_15.7-a2.15"]


def twins_case_text(basket):
    return make_case_text(q=4, source={"q": 4, "basket": basket, "a3": "2/15"})


def test_decorated_source_picks_one_orientation_twin(full_db):
    same = [c.id for c in full_db if (c.q, c.basket.indices, c.a3) == (4, (5, 15), Rational(2, 15))]
    assert same == TWINS
    decorated = load_case(twins_case_text([[5, 1], [15, 2]])).source
    assert decorated.pairs == ((5, 1), (15, 2)) and decorated.indices == (5, 15)
    assert decorated.resolve(full_db).id == TWINS[0]
    # the pairs may come in any order, and a pair no twin has matches nothing
    assert load_case(twins_case_text([[15, 7], [5, 1]])).source.resolve(full_db).id == TWINS[1]
    with pytest.raises(LinkCaseError, match="not in database"):
        load_case(twins_case_text([[5, 2], [15, 2]])).source.resolve(full_db)
    # the bare indices name both twins
    with pytest.raises(LinkCaseError, match="ambiguous source candidate reference"):
        load_case(twins_case_text([5, 15])).source.resolve(full_db)
    # a mirror multiplier r - a names the point r:a
    mirrored = load_case(twins_case_text([[5, 1], [15, 13]])).source
    assert mirrored.pairs == ((5, 1), (15, 2))
    assert mirrored.resolve(full_db).id == TWINS[0]
    assert load_case(twins_case_text([[15, 8], [5, 4]])).source.resolve(full_db).id == TWINS[1]
    # a pair that is no point is a malformed value, not a missing candidate
    with pytest.raises(LinkCaseError) as refused:
        load_case(twins_case_text([[5, 1], [15, 3]]))
    assert str(refused.value) == (
        "case file has a malformed value: multiplier 3 is not coprime to index 15"
    )


# ---------------------------------------------------------------------------
# database lookups


def test_dims_lookup_frozen(full_db):
    assert dims_lookup(full_db, 8, 1, 10) == 0
    assert dims_lookup(full_db, 13, 1, 18) == 0
    assert dims_lookup(full_db, 5, 1, 0) == 2
    assert dims_lookup(full_db, 12, 1, 0) is None  # index 12 admits no candidate at all
    # a genus floor above every q=9 candidate (the ceiling is 18)
    assert dims_lookup(full_db, 9, 1, 18) == 0
    assert dims_lookup(full_db, 9, 1, 19) is None
    assert dims_lookup(full_db, 9, 0, 40) is None


@pytest.mark.parametrize("indices", [tuple(INDEX_SET), (5,)])
def test_dims_table_agrees_with_dims_lookup(full_db, indices):
    # the table scans only the rows of each key's index; 12 and 20 have none
    db = [c for c in full_db if c.q in indices]
    lookup = dims_table(db)
    for qhat in (*INDEX_SET, 12, 20):
        for s in range(qhat + 3):
            for genus_min in (0, 10, 20, 40):
                assert lookup(qhat, s, genus_min) == dims_lookup(db, qhat, s, genus_min)


def test_max_genus_per_index_frozen(full_db):
    best = {}
    for c in full_db:
        best[c.q] = max(best.get(c.q, 0), c.genus)
    assert best[9] == 18
    assert best[10] == 12
    assert best[11] == 22
    assert best[13] == 18
    assert best[17] == 11
    assert best[19] == 7


# ---------------------------------------------------------------------------
# the shipped cases


def test_case_q9_feasible_indices(full_db):
    lookup = dims_table(full_db)
    case = load_case_file(case_path("q9_4A.case"))
    assert case.target_index_set == INDEX_SET
    source = case.source.resolve(full_db)
    solutions = solve(case, source, lookup)
    assert solutions
    assert feasible_indices(solutions) == [5, 6, 7, 8]
    assert all(audit(case, s, source, lookup) for s in solutions)
    assert solutions == sorted(solutions, key=LinkSolution.sort_key)


def test_case_q6_eliminated(full_db):
    lookup = dims_table(full_db)
    case = load_case_file(case_path("q6_basket7.case"))
    assert solve(case, case.source.resolve(full_db), lookup) == []


def test_case_q8_eliminated(full_db):
    lookup = dims_table(full_db)
    case = load_case_file(case_path("q8_basket_3_9.case"))
    assert solve(case, case.source.resolve(full_db), lookup) == []


def test_audit_rejects_perturbations(full_db):
    lookup = dims_table(full_db)
    case = load_case_file(case_path("q9_4A.case"))
    source = case.source.resolve(full_db)
    good = solve(case, source, lookup)[0]
    assert audit(case, good, source, lookup)

    alien_alpha = LinkSolution(good.qhat, good.assignment, Rational(3, 7))
    assert not audit(case, alien_alpha, source, lookup)

    alien_qhat = LinkSolution(23, good.assignment, good.alpha)
    assert not audit(case, alien_qhat, source, lookup)

    # bumping s1 shifts the first relation by 9, so it cannot balance
    tampered = tuple(
        (n, v + 1 if n == "s1" else v) for n, v in good.assignment
    )
    assert not audit(case, LinkSolution(good.qhat, tampered, good.alpha), source, lookup)

    incomplete = LinkSolution(good.qhat, good.assignment[:-1], good.alpha)
    assert not audit(case, incomplete, source, lookup)

    # the toy cases below share one source
    toy = load_case(make_case_text()).source.resolve(full_db)

    # alpha's monomials count: s1 + alpha*e is 1 + 2*2 = 5 only at alpha = 2
    scaled = load_case(make_case_text(alpha=["1/2", "2"], relations=["qhat = s1 + alpha*e"]))
    assert audit(scaled, LinkSolution(5, (("s1", 1), ("e", 2)), Rational(2)), toy, lookup)
    assert not audit(scaled, LinkSolution(5, (("s1", 1), ("e", 2)), Rational(1, 2)), toy, lookup)

    # below a dimension floor: dim|0*Theta| = 0 at qhat = 3, against dim|A| = 1
    floored = load_case(make_case_text(dim_constraints=[["s1", 1, 0]]))
    assert audit(floored, LinkSolution(3, (("s1", 1), ("e", 2)), Rational(1)), toy, lookup)
    assert not audit(floored, LinkSolution(3, (("s1", 0), ("e", 3)), Rational(1)), toy, lookup)

    # a genus-transfer target with no candidate of the source genus: 31 is
    # above the genus ceiling 18 at index 13, and only alpha < 1 transfers it
    transfer = load_case(make_case_text(alpha=["1/2", "1"], genus_transfer=True,
                                        index_set=[13], unknowns=WIDE))
    values = (("s1", 12), ("e", 1))
    assert audit(transfer, LinkSolution(13, values, Rational(1)), toy, lookup)
    assert not audit(transfer, LinkSolution(13, values, Rational(1, 2)), toy, lookup)


def _with_value(solution, name, value):
    return solution._replace(
        assignment=tuple((n, value if n == name else v) for n, v in solution.assignment)
    )


def test_audit_refuses_an_unknown_that_is_not_an_int(full_db):
    lookup = dims_table(full_db)
    case = load_case_file(case_path("q9_4A.case"))
    source = case.source.resolve(full_db)
    stand_ins = {1: [True], 2: [2.0, Rational(2)]}
    tried = 0
    for good in solve(case, source, lookup):
        assert audit(case, good, source, lookup)
        for name, value in good.assignment:
            # each stand-in equals the value, so only its type is refused
            for other in stand_ins.get(value, []):
                assert not audit(case, _with_value(good, name, other), source, lookup)
                tried += 1
    assert tried


# q9_4A, where every move breaks a relation, and a toy case whose unknown z
# has coefficient 0, so a move of z is a solution again
MOVED_CASES = {
    "q9_4A": lambda: load_case_file(case_path("q9_4A.case")),
    "free-unknown": lambda: load_case(make_case_text(
        unknowns=[*WIDE, {"name": "z", "min": 0, "max": 2}],
        relations=["qhat = s1 + e + 0*z"],
    )),
}


@pytest.mark.parametrize("name", sorted(MOVED_CASES))
def test_audit_passes_a_moved_solution_exactly_when_solve_finds_it(full_db, name):
    lookup = dims_table(full_db)
    case = MOVED_CASES[name]()
    source = case.source.resolve(full_db)
    solutions = solve(case, source, lookup)
    found = set(solutions)
    bounds = {u.name: (u.lo, u.hi) for u in case.unknowns}
    moved = set()
    for good in solutions:
        for unknown, value in good.assignment:
            lo, hi = bounds[unknown]
            for step in (-1, 1):
                if lo <= value + step <= hi:
                    moved.add(_with_value(good, unknown, value + step))
    assert moved - found
    assert bool(moved & found) == (name == "free-unknown")
    for candidate in moved:
        assert audit(case, candidate, source, lookup) == (candidate in found)


# ---------------------------------------------------------------------------
# solver semantics on a controlled case


def test_solve_toy_case_counts(full_db):
    lookup = dims_table(full_db)
    toy = load_case(make_case_text()).source.resolve(full_db)
    plain = solve(load_case(make_case_text()), toy, lookup)
    # qhat in {3,4,5}, e in 1..3, s1 = qhat - e >= 0: three each
    assert len(plain) == 9
    assert feasible_indices(plain) == [3, 4, 5]
    assert all(audit(load_case(make_case_text()), s, toy, lookup) for s in plain)

    constrained = solve(
        load_case(make_case_text(dim_constraints=[["s1", 1, 0]])), toy, lookup
    )
    # requiring dim|s1*Theta| >= dim|A| = 1 kills exactly the s1 = 0 solution
    keys = {(s.qhat, s.assignment, s.alpha) for s in constrained}
    plain_keys = {(s.qhat, s.assignment, s.alpha) for s in plain}
    assert keys < plain_keys
    assert len(constrained) == 8
    assert all(dict(s.assignment)["s1"] >= 1 for s in constrained)


def test_solve_respects_index_set(full_db):
    lookup = dims_table(full_db)
    toy = load_case(make_case_text()).source.resolve(full_db)
    only_five = solve(load_case(make_case_text(index_set=[5])), toy, lookup)
    assert feasible_indices(only_five) == [5]
    assert len(only_five) == 3


def test_genus_transfer_prunes_targets(full_db):
    lookup = dims_table(full_db)
    toy = load_case(make_case_text()).source.resolve(full_db)
    # source genus 31 exceeds the genus ceiling 18 at index 13, so with
    # transfer on and alpha < 1 the target index dies outright
    text = make_case_text(alpha=["1/2"], genus_transfer=True,
                          index_set=[13], unknowns=WIDE)
    assert solve(load_case(text), toy, lookup) == []
    # alpha >= 1 carries no genus down and the arithmetic solutions survive
    relaxed = make_case_text(alpha=["1"], genus_transfer=True,
                             index_set=[13], unknowns=WIDE)
    assert len(solve(load_case(relaxed), toy, lookup)) == 3


def test_zero_coefficients_keep_their_names(full_db):
    # an undeclared name is refused even where its coefficient is zero
    with pytest.raises(LinkCaseError, match=r"undeclared names \['z'\]"):
        load_case(make_case_text(relations=["qhat = 0*z + e"]))
    # a declared one with a zero coefficient constrains nothing
    lookup = dims_table(full_db)
    zeroed = load_case(make_case_text(relations=["qhat = 0*e + 3"]))
    toy = zeroed.source.resolve(full_db)
    solutions = solve(zeroed, toy, lookup)
    assert solutions == solve(load_case(make_case_text(relations=["qhat = 3"])), toy, lookup)
    # s1 in 0..5 and e in 1..3, all at qhat = 3
    assert len(solutions) == 18
    assert all(audit(zeroed, s, toy, lookup) for s in solutions)


def test_recheck_drops_a_dip_above_the_floor(full_db):
    # at index 10, dim|s*Theta| is 0, -1, 0 for s = 0, 1, 2: the floor for
    # dim >= dim|0*A| = 0 stays at s1 = 0, so only the exact re-check
    # refuses s1 = 1
    assert [dims_lookup(full_db, 10, s) for s in range(3)] == [0, -1, 0]
    lookup = dims_table(full_db)
    toy = load_case(make_case_text()).source.resolve(full_db)
    free = make_case_text(relations=["qhat = 9*s1 + e"], index_set=[10])
    assert [s.assignment for s in solve(load_case(free), toy, lookup)] == [
        (("s1", 1), ("e", 1))
    ]
    floored = make_case_text(relations=["qhat = 9*s1 + e"], index_set=[10],
                             dim_constraints=[["s1", 0, 0]])
    assert solve(load_case(floored), toy, lookup) == []


# ---------------------------------------------------------------------------
# the compiled search against a search that evaluates the relation text


def _reference_interval(text, lo_env, hi_env):
    # all variables are >= 0 and the grammar has no subtraction, so every
    # expression is monotone non-decreasing in every variable
    return _text_value(text, lo_env), _text_value(text, hi_env)


def _reference_solve(case, db):
    """The exhaustive search over the relation text in Fractions, kept as the oracle."""
    source = case.source.resolve(db)
    relations = [_rhs_text(rel) for rel in case.relations]
    memo: dict[tuple[int, int, int], int | None] = {}
    names = [u.name for u in case.unknowns]
    solutions: list[LinkSolution] = []

    def lookup(qhat, s, gmin):
        if (qhat, s, gmin) not in memo:
            memo[qhat, s, gmin] = dims_lookup(db, qhat, s, gmin)
        return memo[qhat, s, gmin]

    def genus_min(alpha, base):
        # with the transfer on, a discrepancy below 1 carries the genus over
        if case.genus_transfer and alpha < 1:
            return max(base, source.genus)
        return base

    for qhat in case.target_index_set:
        for alpha in case.alpha_options:
            if case.genus_transfer and alpha < 1:
                # the target must support the transferred genus at all
                if lookup(qhat, 0, source.genus) is None:
                    continue

            # per-variable bounds, tightened by the dimension constraints
            lo = {u.name: u.lo for u in case.unknowns}
            hi = {u.name: u.hi for u in case.unknowns}
            feasible = True
            for con in case.dim_constraints:
                need = source.dim(con.source_k)
                gmin = genus_min(alpha, con.genus_min)
                smin = lo[con.var]
                while smin <= hi[con.var]:
                    got = lookup(qhat, smin, gmin)
                    if got is not None and got >= need:
                        break
                    smin += 1
                else:
                    feasible = False
                    break
                if smin > hi[con.var]:
                    feasible = False
                    break
                lo[con.var] = smin
            if not feasible:
                continue

            target = Rational(qhat)
            env: dict[str, Rational] = {"alpha": alpha}
            lo_env: dict[str, Rational] = {"alpha": alpha}
            hi_env: dict[str, Rational] = {"alpha": alpha}
            for name in names:
                lo_env[name] = Rational(lo[name])
                hi_env[name] = Rational(hi[name])

            def assign(idx: int) -> Iterator[dict[str, Rational]]:
                for text in relations:
                    rlo, rhi = _reference_interval(text, lo_env, hi_env)
                    if not (rlo <= target <= rhi):
                        return
                if idx == len(names):
                    if all(_text_value(text, env) == target for text in relations):
                        yield dict(env)
                    return
                name = names[idx]
                for value in range(lo[name], hi[name] + 1):
                    env[name] = lo_env[name] = hi_env[name] = Rational(value)
                    yield from assign(idx + 1)
                del env[name]
                lo_env[name] = Rational(lo[name])
                hi_env[name] = Rational(hi[name])

            for found in assign(0):
                # final exact re-check of the dimension constraints
                ok = True
                for con in case.dim_constraints:
                    gmin = genus_min(alpha, con.genus_min)
                    got = lookup(qhat, int(found[con.var]), gmin)
                    if got is None or got < source.dim(con.source_k):
                        ok = False
                        break
                if ok:
                    solutions.append(
                        LinkSolution(
                            qhat=qhat,
                            assignment=tuple((n, int(found[n])) for n in names),
                            alpha=alpha,
                        )
                    )

    solutions.sort(key=LinkSolution.sort_key)
    return solutions


SHIPPED_CASES = ("q9_4A.case", "q6_basket7.case", "q8_basket_3_9.case")

#: Solutions at a variable's upper bound and just below the value where the
#: search stops its loop.
AT_A_BREAK = {"relations": ["qhat = 2*s1 + e"], "index_set": [5], "unknowns": WIDE}

# the toy cases the solver-semantics tests build
TOY_OVERRIDES = [
    {},
    {"dim_constraints": [["s1", 1, 0]]},
    {"index_set": [5]},
    {"alpha": ["1/2"], "genus_transfer": True, "index_set": [13], "unknowns": WIDE},
    {"alpha": ["1"], "genus_transfer": True, "index_set": [13], "unknowns": WIDE},
    # alpha = 1/2 compiles to 2*s1 + e = 2*qhat, so the scale d is 2
    {"alpha": ["1/2", "2"], "relations": ["qhat = s1 + alpha*e"]},
    # a dip of dim|s*Theta| above the floor, which only the re-check catches
    {"relations": ["qhat = 9*s1 + e"], "index_set": [10], "dim_constraints": [["s1", 0, 0]]},
    AT_A_BREAK,
]


#: ``_evaluate`` calls one ``solve`` makes on each shipped case.  The value
#: loop stops at the first value whose low corner passes its target (21,351
#: calls on ``q9_4A`` when every value opened a child node).
EVALUATIONS = {"q9_4A.case": 2463, "q6_basket7.case": 29, "q8_basket_3_9.case": 48}


@pytest.mark.parametrize("name", SHIPPED_CASES)
def test_search_work_on_shipped_cases(name, full_db, monkeypatch):
    calls = 0
    evaluate = links._evaluate

    def counting(terms, values):
        nonlocal calls
        calls += 1
        return evaluate(terms, values)

    monkeypatch.setattr(links, "_evaluate", counting)
    case = load_case_file(case_path(name))
    solve(case, case.source.resolve(full_db), dims_table(full_db))
    assert calls == EVALUATIONS[name]


#: Values one ``solve`` tries on each shipped case: each value a dimension
#: floor's scan or the assignment of an unknown sets.
NODES = {"q9_4A.case": 783, "q6_basket7.case": 0, "q8_basket_3_9.case": 314}


@pytest.mark.parametrize("name", SHIPPED_CASES)
def test_shipped_cases_fit_the_search_budget(name, full_db, monkeypatch):
    case = load_case_file(case_path(name))
    source, lookup = case.source.resolve(full_db), dims_table(full_db)
    solutions = solve(case, source, lookup)
    assert NODES[name] < MAX_SEARCH_NODES
    # a budget of exactly the values tried is enough, and one fewer is not
    monkeypatch.setattr(links, "MAX_SEARCH_NODES", NODES[name])
    assert solve(case, source, lookup) == solutions
    if NODES[name]:
        monkeypatch.setattr(links, "MAX_SEARCH_NODES", NODES[name] - 1)
        with pytest.raises(LinkCaseError, match=f"more than {NODES[name] - 1} values"):
            solve(case, source, lookup)


def test_an_unknown_no_relation_names_is_refused_past_the_budget(full_db):
    # every value of z completes every solution of q9_4A, so without the
    # budget the search would try, and keep, a billion solutions per branch
    doc = _case_doc("q9_4A.case")
    doc["unknowns"].append({"name": "z", "min": 0, "max": 10**9})
    case = load_case(json.dumps(doc))
    with pytest.raises(LinkCaseError, match=f"tries more than {MAX_SEARCH_NODES} values"):
        solve(case, case.source.resolve(full_db), dims_table(full_db))


def test_solutions_at_a_bound_and_below_a_break(full_db):
    # qhat = 2*s1 + e at qhat = 5: s1 = 1 needs e at its bound 3, and s1 = 2
    # is the last value before the low corner 2*3 + 1 passes 5 and the loop
    # stops; TOY_OVERRIDES checks the case against the reference search
    case = load_case(make_case_text(**AT_A_BREAK))
    source = case.source.resolve(full_db)
    assert [s.assignment for s in solve(case, source, dims_table(full_db))] == [
        (("s1", 1), ("e", 3)), (("s1", 2), ("e", 1))
    ]


@pytest.mark.parametrize("name", SHIPPED_CASES)
def test_solve_matches_reference_on_shipped_cases(name, full_db):
    lookup = dims_table(full_db)
    case = load_case_file(case_path(name))
    assert solve(case, case.source.resolve(full_db), lookup) == _reference_solve(case, full_db)


@pytest.mark.parametrize("overrides", TOY_OVERRIDES)
def test_solve_matches_reference_on_toy_cases(overrides, full_db):
    lookup = dims_table(full_db)
    case = load_case(make_case_text(**overrides))
    assert solve(case, case.source.resolve(full_db), lookup) == _reference_solve(case, full_db)


def _case_doc(name):
    return json.loads(case_path(name).read_text(encoding="utf-8"))


# the shipped sources, and one of genus 3 that the genus transfer keeps
# few targets away from
_SOURCES = (
    *(_case_doc(name)["source"] for name in SHIPPED_CASES),
    {"q": 5, "basket": [7, 14], "a3": "1/14"},
)


@st.composite
def _random_cases(draw):
    """A small case whose relations all hold at one drawn point, when they can."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    unknowns = []
    env = {}
    for name in names:
        lo = draw(st.integers(0, 6))
        hi = draw(st.integers(lo, 6))
        unknowns.append({"name": name, "min": lo, "max": hi})
        env[name] = Rational(draw(st.integers(lo, hi)))
    alphas = draw(st.lists(st.sampled_from(["1/2", "1/3", "1", "2"]),
                           min_size=1, max_size=4, unique=True))
    env["alpha"] = Rational(draw(st.sampled_from(alphas)))
    atom = st.sampled_from([*names, "alpha", "0", "1", "2", "3"])
    factor = st.one_of(atom, st.tuples(atom, atom).map(lambda ab: f"({ab[0]} + {ab[1]})"))
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    rhs = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    # plant a solution: pad each relation to an integer at the point with a
    # multiple of a power of alpha, then up to the smallest index no relation
    # exceeds there
    planted = []
    for text in draw(st.lists(rhs, min_size=1, max_size=2)):
        value = _text_value(text, env)
        if value.denominator > 1:
            # value.denominator is a power of 1/alpha
            power, unit = 0, Rational(1)
            while unit != value.denominator:
                power, unit = power + 1, unit / env["alpha"]
            text += f" + {-value.numerator % value.denominator}" + "*alpha" * power
            value = math.ceil(value)
        planted.append((text, int(value)))
    top = max(n for _, n in planted)
    qhat = next((q for q in INDEX_SET if q >= top), None)
    index_set = draw(st.lists(st.sampled_from(INDEX_SET),
                              min_size=1, max_size=4, unique=True))
    if qhat is not None:
        planted = [(f"{text} + {qhat - n}", qhat) for text, n in planted]
        index_set = sorted({*index_set, qhat})
    source = draw(st.sampled_from(_SOURCES))
    doc = {
        "q": source["q"],
        "source": source,
        "alpha": alphas,
        "unknowns": unknowns,
        "relations": [f"qhat = {text}" for text, _ in planted],
        "dim_constraints": draw(st.lists(
            st.tuples(st.sampled_from(names), st.integers(0, 4), st.integers(0, 20)).map(list),
            max_size=1,
        )),
        "index_set": index_set,
        "genus_transfer": draw(st.booleans()),
    }
    return load_case(json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(case=_random_cases())
def test_solve_matches_reference_on_random_cases(case, full_db):
    lookup = dims_table(full_db)
    assert solve(case, case.source.resolve(full_db), lookup) == _reference_solve(case, full_db)


@settings(max_examples=200, deadline=None)
@given(case=_random_cases())
def test_compiled_coefficients_are_non_negative(case):
    # the search's corner bounds and its early stop hold only while they are
    position = {u.name: i for i, u in enumerate(case.unknowns)}
    for alpha in case.alpha_options:
        for rel in case.relations:
            terms, scale = links._compile(rel.rhs, alpha, position)
            assert scale >= 1
            assert all(coef >= 0 for coef, _ in terms)


# ---------------------------------------------------------------------------
# edited case documents load or are refused, never crash

_SWAPS = (None, True, 0, -1, 2.5, "", "1", "1/2", "0", [], {}, ["x"], [1, 2], [[7, 1]], {"k": 1})


@st.composite
def _edited_case_documents(draw):
    doc = _case_doc(draw(st.sampled_from(SHIPPED_CASES)))
    where = draw(st.sampled_from(["top", "source", "unknown"]))
    if where == "top":
        target = doc
    elif where == "source":
        target = doc["source"]
    else:
        target = draw(st.sampled_from(doc["unknowns"]))
    key = draw(st.sampled_from(sorted(target)))
    action = draw(st.sampled_from(["delete", "swap", "insert"]))
    if action == "delete":
        del target[key]
    elif action == "swap":
        old = target[key]
        target[key] = draw(
            st.sampled_from([v for v in (*_SWAPS, str(old)) if type(v) is not type(old)])
        )
    else:
        target[draw(st.text(min_size=1, max_size=8))] = draw(st.sampled_from(_SWAPS))
    return json.dumps(doc)


# the edited cases are only loaded: an edited bound could make a search
# arbitrarily long
@settings(max_examples=300, deadline=None)
@given(text=_edited_case_documents())
def test_edited_case_loads_or_is_refused(text):
    try:
        case = load_case(text)
    except LinkCaseError:
        return
    assert isinstance(case, LinkCase)
