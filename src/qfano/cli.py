"""The ``qfano`` command line tool.

``enumerate --all`` writes the stored database of every index and nothing
else; every other command but ``diff`` reads one, which its load checks is
complete, and ``export`` is the one command that renders it whole.  The
database is the one file the tool writes: every rendering goes to standard
output.

Exit codes: 0 success, 2 usage error (including an ``enumerate --db`` path
that cannot be written, and a standard output that is closed or cannot be
written), 3 missing or unreadable input, 4 internal consistency failure (a
check the tool makes about itself).  Standard output, ``--help`` included,
is written once, when the command ends.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import sys
from contextlib import redirect_stdout
from functools import lru_cache
from importlib import resources
from itertools import combinations
from typing import Sequence

from .arith import InputError, format_rational
from .enumeration import (
    Candidate,
    FILTER_FLAGS,
    FILTER_SETS,
    INDEX_SET,
    enumerate_candidates,
    facts,
    filter_diff,
    indices_text,
)
from .store import Database, dumps_database, load_database, save_database
from .surveys import SURVEYS, survey_rows

# links and wps are imported inside the one command that uses each
# (cmd_link_solve, cmd_wps_check), so no other command pays for them at
# start-up; main catches their errors through the InputError base class

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# rendering


def _align(rows: list[list[str]]) -> str:
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def render_candidate_table(candidates: Sequence[Candidate]) -> str:
    header = ["id", "q", "-K^3", "A^3", "basket", "genus", "dims |A|..|-K|"]
    return _align([header] + [
        [c.id, str(c.q), format_rational(c.minus_k3), format_rational(c.a3), str(c.basket),
         str(c.genus), " ".join(map(str, c.dims))]
        for c in candidates
    ])


def render_candidate_csv(candidates: Sequence[Candidate]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "q", "minus_k3", "a3", "sigma", "basket", "genus", "dims"])
    writer.writerows(
        [c.id, c.q, format_rational(c.minus_k3), format_rational(c.a3), format_rational(c.sigma),
         " ".join(map(str, c.basket.points)), c.genus, " ".join(map(str, c.dims))]
        for c in candidates
    )
    return buffer.getvalue().rstrip("\n")


def render_survey_table(key: str, candidates: Sequence[Candidate]) -> str:
    survey = SURVEYS[key]
    rows = survey_rows(survey, candidates)
    header = ["basket", "A^3"] + [f"|{k}A|" for k in range(1, survey.q + 1)]
    table = [header] + [
        [indices_text(c.basket), format_rational(c.a3), *map(str, c.dims)] for c in rows
    ]
    return f"index {survey.q} survey ({survey.description}): {len(rows)} rows\n" + _align(table)


def render_counts(db: Database) -> str:
    counts = db.counts()
    per_q = ", ".join(f"q={q}: {counts[q]}" for q in sorted(counts))
    return f"{len(db.candidates)} candidates ({per_q})"


class OutputError(Exception):
    """The database path that ``enumerate --db`` was given cannot be written."""


def _refuse_unwritable(db: str) -> None:
    """Refuse, before any work is done, an ``enumerate --db`` path that is
    empty, is a directory, or whose directory is missing or not a directory.
    The directory is that of the resolved path, since a symlink is written
    through to its target.  No file is opened, since opening it would
    truncate it."""
    if db == "":
        raise OutputError("'' (an empty path names no file)")
    if os.path.isdir(db) or not os.path.isdir(os.path.dirname(os.path.realpath(db))):
        raise OutputError(db)


# ---------------------------------------------------------------------------
# commands


def _build_database(filter_set: str, jobs: int) -> Database:
    candidates = enumerate_candidates(INDEX_SET, FILTER_SETS[filter_set], jobs=jobs)
    return Database(filter_set, tuple(candidates))


def cmd_enumerate(args) -> int:
    _refuse_unwritable(args.db)
    db = _build_database(args.filter_set, args.jobs)
    try:
        save_database(db, args.db)
    except OSError as exc:  # an unwritable path, not a missing input
        raise OutputError(args.db) from exc
    print(f"{render_counts(db)} -> {args.db}")
    return EXIT_OK


def cmd_table(args) -> int:
    db = load_database(args.db)
    print(render_survey_table(args.case, db.candidates))
    return EXIT_OK


def cmd_wps_check(args) -> int:
    from .wps import WpsModel, degree_a3, fano_index, match_candidate

    try:
        weights = tuple(int(w) for w in args.weights.split(","))
        model = WpsModel(weights=weights, degree=args.degree)
        dimension = len(model.weights) - 1 - (model.degree is not None)
        if dimension != 3:
            raise ValueError(
                f"{model} has dimension {dimension}; candidates are threefolds"
            )
        # the index sum(w) - d and the degree d/prod(w) hold only on a
        # well-formed model (Iano-Fletcher, section 6): every n of the n+1
        # weights are coprime, and the gcd of every n-1 divides the degree
        n = len(model.weights) - 1
        for rest in combinations(model.weights, n):
            if math.gcd(*rest) > 1:
                raise ValueError(f"{model} is not well-formed: gcd{rest} = {math.gcd(*rest)}")
        for rest in combinations(model.weights, n - 1) if model.degree else ():
            if model.degree % math.gcd(*rest):
                raise ValueError(f"{model} is not well-formed: "
                                 f"gcd{rest} does not divide {model.degree}")
    except ValueError as exc:
        print(f"qfano wps check: {exc}", file=sys.stderr)
        return EXIT_USAGE
    q = fano_index(model)
    a3 = degree_a3(model)
    db = load_database(args.db)
    print(f"model: {model}")
    print(f"fano index q = {q}, A^3 = {format_rational(a3)}, "
          f"-K^3 = {format_rational(q**3 * a3)}")
    pool = [c for c in db.candidates if c.q == q and c.a3 == a3]
    if not pool:
        print("candidate match: none (no enumerated candidate has this index and degree)")
        return EXIT_OK
    kmax = 2 * q + 5
    matched = 0
    for c in pool:
        first_mismatch = match_candidate(model, c, kmax)
        if first_mismatch is None:
            matched += 1
            print(f"candidate match: {c.id} (h^0 agrees with chi for k = 0..{kmax})")
        else:
            print(f"candidate {c.id}: h^0 diverges from chi first at k = {first_mismatch}")
    if matched == 0:
        print("candidate match: none (index and degree agree, plurigenera do not)")
    return EXIT_OK


def _resolve_case_path(name: str) -> str:
    if os.path.exists(name):
        return name
    # only a bare name means a shipped case: a path with a directory part
    # names that file and no other
    if os.path.basename(name) == name:
        packaged = resources.files("qfano").joinpath("cases", name)
        if packaged.is_file():
            return str(packaged)
    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), name)


def cmd_link_solve(args) -> int:
    from .links import audit, describe_case, dims_table, feasible_indices, load_case_file, solve

    case = load_case_file(_resolve_case_path(args.case))
    db = load_database(args.db)
    lookup = dims_table(db.candidates)
    source = case.source.resolve(db.candidates)
    solutions = solve(case, source, lookup)
    print(describe_case(case))
    print(f"solutions: {len(solutions)}")
    for sol in solutions:
        assigned = " ".join(f"{name}={value}" for name, value in sol.assignment)
        text = f"qhat={sol.qhat} alpha={format_rational(sol.alpha)} {assigned}"
        print(f"  {text}")
        if not audit(case, sol, source, lookup):
            # stdout is written after stderr, so the line names its solution
            print(f"audit failed for {text}", file=sys.stderr)
            return EXIT_INTERNAL
    feasible = feasible_indices(solutions)
    if feasible:
        print("feasible qhat values: {" + ", ".join(str(q) for q in feasible) + "}")
    else:
        print("feasible qhat values: none -- case eliminated")
    return EXIT_OK


def cmd_facts(args) -> int:
    db = load_database(args.db)
    all_hold = True
    for fact in facts(db.candidates):
        status = "PASS" if fact.holds else "FAIL"
        all_hold = all_hold and fact.holds
        print(f"{status} {fact.name}: {fact.statement} [{fact.value}]")
    return EXIT_OK if all_hold else EXIT_INTERNAL


def cmd_export(args) -> int:
    db = load_database(args.db)
    if args.format == "json":
        text = dumps_database(db).rstrip("\n")
    elif args.format == "csv":
        text = render_candidate_csv(db.candidates)
    else:
        text = render_candidate_table(db.candidates)
    print(text)
    return EXIT_OK


def cmd_diff(args) -> int:
    config = FILTER_SETS[args.filter_set]
    flags = (args.flag,) if args.flag else FILTER_FLAGS
    for flag in flags:
        removed, added = filter_diff(args.q, flag, config)
        current = getattr(config, flag)
        print(f"{flag}: {current} -> {not current}: "
              f"removes {len(removed)}, adds {len(added)}")
        for sign, changed in (("-", removed), ("+", added)):
            for c in changed[:20]:
                print(f"  {sign} {c.id}")
            if len(changed) > 20:
                print(f"  {sign} ... {len(changed) - 20} more")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="qfano",
        description="Enumerate and probe numerical Fano threefold candidates of index >= 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="run the candidate enumeration into a database")
    # every database holds every index; required, as every command line says it
    p.add_argument("--all", action="store_true", required=True,
                   help=f"every admissible index, {INDEX_SET}")
    p.add_argument("--filter-set", choices=sorted(FILTER_SETS), default="default")
    p.add_argument("--jobs", type=positive_int, default=1, help="worker processes")
    p.add_argument("--db", metavar="PATH", required=True, help="write the database here")
    p.set_defaults(func=cmd_enumerate)

    # every read takes the one stored database that enumerate --db writes
    read = argparse.ArgumentParser(add_help=False)
    read.add_argument("--db", metavar="PATH", required=True, help="candidate database")

    p = sub.add_parser("table", parents=[read], help="render one survey table")
    p.add_argument("--case", choices=sorted(SURVEYS), required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("wps", help="weighted projective space oracles")
    wps_sub = p.add_subparsers(dest="wps_command", required=True)
    pc = wps_sub.add_parser("check", parents=[read],
                            help="match a (hypersurface in a) weighted "
                                 "projective space against the database")
    pc.add_argument("--weights", required=True, metavar="W1,W2,...")
    pc.add_argument("--degree", type=int, default=None,
                    help="hypersurface degree (omit for the whole space)")
    pc.set_defaults(func=cmd_wps_check)

    p = sub.add_parser("link", help="two-ray link numerology")
    link_sub = p.add_subparsers(dest="link_command", required=True)
    ps = link_sub.add_parser("solve", parents=[read],
                             help="enumerate feasible link targets for a case file")
    ps.add_argument("case", metavar="CASEFILE",
                    help="path to a case file, or the name of a packaged one")
    ps.set_defaults(func=cmd_link_solve)

    p = sub.add_parser("facts", parents=[read], help="check the classification-shaped facts")
    p.set_defaults(func=cmd_facts)

    p = sub.add_parser("export", parents=[read],
                       help="render a stored database as a table, CSV or JSON")
    p.add_argument("--format", choices=("table", "json", "csv"), default="csv")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("diff", help="show what each filter switch adds or removes")
    p.add_argument("--q", type=int, choices=INDEX_SET, metavar="Q", required=True)
    p.add_argument("--flag", choices=FILTER_FLAGS, default=None)
    p.add_argument("--filter-set", choices=sorted(FILTER_SETS), default="default")
    p.set_defaults(func=cmd_diff)

    return parser


def _run(argv: Sequence[str] | None) -> int:
    """Parse ``argv`` and run its command; a reported error becomes its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except OutputError as exc:
        print(f"qfano: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        # quoted, so an empty or blank path still shows
        print(f"qfano: input not found: {exc.filename!r}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except InputError as exc:  # a StoreError or a LinkCaseError
        print(f"qfano: bad input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT


def main(argv: Sequence[str] | None = None) -> int:
    if sys.stdout is None:
        # started with fd 1 closed: print would drop every line unread
        print("qfano: cannot write output: stdout", file=sys.stderr)
        return EXIT_USAGE
    # the command's stdout, --help included, is written once, at the end, so
    # that a stdout which cannot be written fails at that one write
    text = io.StringIO()
    with redirect_stdout(text):
        code = _run(argv)
    try:
        sys.stdout.write(text.getvalue())
        sys.stdout.flush()
    except OSError:
        # the unwritten rest stays buffered: the flush at exit drops it here
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("qfano: cannot write output: stdout", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
