"""Candidate databases on disk: canonical JSON, loaded back verbatim.

The file layout is fixed so that two runs producing the same candidates
produce byte-identical files (worker count, dict ordering, and platform
must not leak in).  :func:`dumps_database` is the one statement of that
layout: the header goes through ``json.dumps(indent=2)`` and each row is one
fixed template, so that the text is ``json.dumps(document, indent=2)`` and a
newline, byte for byte, without ``json``'s pure-Python indenting encoder.
Every database names one of :data:`~qfano.enumeration.FILTER_SETS`; a load
refuses any other ``filter_set``, ``null`` included.  A load recomputes
every row from its ``(q, basket, A^3)``, takes the filter config from the
named filter set, and accepts the file only if it is the document this
version would write for the result.  A file that is that text exactly is
accepted by one string comparison.  Any other text (compact or re-indented
JSON, or a wrong document) is compared with it as compact JSON: so a header
key, value, type or key order, or a row value or spelling, that the writer
would not produce is refused, and the first disagreeing row is named.
Rows must also be in the enumeration's canonical order without repeats, by
the key :func:`~qfano.enumeration.canonical_order` sorts them with.  A row's
``q`` and basket pairs must be JSON integers (:func:`~qfano.arith.json_integer`),
and a row whose basket has an index above ``MAX_POINT_INDEX`` is refused
before it is recomputed.  Each row is rebuilt under a single decode guard: a
missing field, a value of the wrong shape, or data the formula refuses (a
degree that is not positive, a non-integral ``chi``) is reported as a
malformed row, while the integer and index refusals pass through that guard
with their own messages.  Last, the database must be exactly its filter set's
enumeration at every index of ``INDEX_SET``: at each index, the count of its
rows and the sha256 of their ids must be the ones in :data:`ID_DIGESTS`, so a
dropped or a forged row is refused, and so is a database with no rows at some
index.  So a loaded database can be trusted as input without re-running the
enumeration, and a command may read "no candidate qualifies" off it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from collections import namedtuple
from typing import Any, Callable

from .arith import InputError, format_rational, json_integer, parse_rational, read_input
from .enumeration import (
    DEGREE_CAP,
    DEGREE_CAP_EXCEPTION,
    FILTER_FLAGS,
    FILTER_SETS,
    INDEX_SET,
    MAX_POINT_INDEX,
    Candidate,
    FilterConfig,
    canonical_order,
)
from .riemann_roch import Basket, SingularPoint

FORMAT_VERSION = 1

#: Per filter set and index: the candidate count and the sha256 of the ids,
#: in canonical order, joined by newlines.  The test suite re-derives it
#: from :func:`~qfano.enumeration.enumerate_candidates`.
ID_DIGESTS: dict[str, dict[int, tuple[int, str]]] = {
    "capped": {
        3: (231, "b3cbf41cbb91ba217b4ee0ff97cb975bd8bed433518f630a961f30f0dacc4339"),
        4: (121, "34b4f5b897973f11dc57c99c571ba2e68865b0390da04e5ddd660c3d87d9ee65"),
        5: (60, "c7dfb8808b6e55417ec4ae4a518c52b08e7f893f7dcdf583e2867183d11e6447"),
        6: (10, "2828fd3b6cb133691ec073aaf01e731c19a2948006a70a84c74bf9cdbb6107dd"),
        7: (21, "5e93dbd6abe590d4ef3c116dbfed5832c2d29338697710537f928bb2de5f79de"),
        8: (10, "9c0578e6f8dc9d037825286ea7138414e7e5034c99f2b40ccfe3ea32f8e55905"),
        9: (2, "adcbac4915531cd1c5840d4a980da298674d6c471eb4d62d039305d9aa1492cc"),
        10: (1, "70a006a2e48b791f8d4914d134daced063fabb7ced0946b4a03a473725bc4b03"),
        11: (3, "722e7b7aaf1398659879a1eefb053e65780858af8bc9e7f8ec338debb71ceff0"),
        13: (2, "80ba5531049e85051c750f306380418088f8e68749468647852473c573a7e2ff"),
        17: (1, "e6067a0eb05f7b5de99017a1113eee41dc6637ceb647b6c1fe93560811213dd8"),
        19: (1, "d06d02832ce67aca050f449999fe692f74be03460ce7f0c78319b0967fa7814a"),
    },
    "default": {
        3: (231, "b3cbf41cbb91ba217b4ee0ff97cb975bd8bed433518f630a961f30f0dacc4339"),
        4: (124, "f77f8966b927d57b5141f227c13e30c8b04725621c1c099106aa0f7884bd9b5e"),
        5: (63, "d8c6e70a894df9470a0848f96325228ebf83cf2d06cdebfec4b324140ec64f18"),
        6: (11, "4ecfb16a7253d498e094678588b47f3812dc845dea26c9c8b0b6c8fa16bd3d3a"),
        7: (23, "b102f97d7f8ed82837eb5bf46bcf947ca4bb4642ff936b2d66fa142bafcdbf71"),
        8: (10, "9c0578e6f8dc9d037825286ea7138414e7e5034c99f2b40ccfe3ea32f8e55905"),
        9: (2, "adcbac4915531cd1c5840d4a980da298674d6c471eb4d62d039305d9aa1492cc"),
        10: (1, "70a006a2e48b791f8d4914d134daced063fabb7ced0946b4a03a473725bc4b03"),
        11: (3, "722e7b7aaf1398659879a1eefb053e65780858af8bc9e7f8ec338debb71ceff0"),
        13: (2, "80ba5531049e85051c750f306380418088f8e68749468647852473c573a7e2ff"),
        17: (1, "e6067a0eb05f7b5de99017a1113eee41dc6637ceb647b6c1fe93560811213dd8"),
        19: (1, "d06d02832ce67aca050f449999fe692f74be03460ce7f0c78319b0967fa7814a"),
    },
}


class StoreError(InputError):
    """The file is not a database this version can vouch for."""


def config_to_json(config: FilterConfig) -> dict[str, Any]:
    exc_q, exc_basket, exc_a3 = DEGREE_CAP_EXCEPTION
    return {
        "degree_cap": format_rational(DEGREE_CAP),
        "degree_cap_exception": {
            "q": exc_q,
            "basket": [[p.r, p.a] for p in exc_basket.points],
            "a3": format_rational(exc_a3),
        },
        **{flag: getattr(config, flag) for flag in FILTER_FLAGS},
        "index_set": list(INDEX_SET),
    }


def _rebuild_row(
    data: dict[str, Any], point: Callable[[int, int], SingularPoint]
) -> Candidate:
    """Recompute a row from its ``(q, basket, A^3)`` alone, its points made by ``point``."""
    try:
        pairs = [(json_integer(r, "basket index in a stored row", StoreError),
                  json_integer(a, "basket orientation in a stored row", StoreError))
                 for r, a in data["basket"]]
        if any(r > MAX_POINT_INDEX for r, _ in pairs):
            # no enumerated basket has such a point, and recomputing the row
            # would cost time linear in its index
            raise StoreError(f"basket index above {MAX_POINT_INDEX} in a stored row")
        basket = Basket([point(r, a) for r, a in pairs])
        q = json_integer(data["q"], "q in a stored row", StoreError)
        return Candidate.from_parts(q, basket, parse_rational(data["a3"]))
    except StoreError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed candidate row: {exc!r}") from exc


class Database(namedtuple("Database", "filter_set candidates")):
    """An enumeration result: the filters used and what survived them.

    ``filter_set`` is the name of the filter set in
    :data:`~qfano.enumeration.FILTER_SETS` the enumeration ran under, and
    ``candidates`` a tuple of :class:`Candidate`.
    """

    __slots__ = ()

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.candidates:
            out[c.q] = out.get(c.q, 0) + 1
        return out


# A row as json.dumps(document, indent=2) lays it out: the row at depth 2,
# its fields at 3, its basket's pairs and its dims at 4, each pair's numbers
# at 5.  The strings are quoted as json quotes them: a Fraction's %s is
# format_rational's "n/d" or "n", and neither it nor an id (only [a-z0-9._-])
# holds a character json escapes.
_ROW = """\
    {
      "q": %d,
      "basket": %s,
      "a3": "%s",
      "sigma": "%s",
      "minus_k3": "%s",
      "minus_k_c2": "%s",
      "dims": %s,
      "genus": %d,
      "id": "%s"
    }"""
_PAIR = "        [\n          %d,\n          %d\n        ]"


def _row_text(c: Candidate) -> str:
    q, (points, _, _), a3, sigma, minus_k3, minus_k_c2, dims, genus, id_ = c
    basket = "[\n" + ",\n".join([_PAIR % p for p in points]) + "\n      ]"
    dims_text = "[\n        " + ",\n        ".join(map(str, dims)) + "\n      ]"
    return _ROW % (
        q,
        basket if points else "[]",
        a3,
        sigma,
        minus_k3,
        minus_k_c2,
        dims_text if dims else "[]",
        genus,
        id_,
    )


def dumps_database(db: Database) -> str:
    """The canonical text of ``db``: its document as ``json.dumps(indent=2)``
    writes it, and a newline."""
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "filter_set": db.filter_set,
            "config": config_to_json(FILTER_SETS[db.filter_set]),
            "count": len(db.candidates),
        },
        indent=2,
    )
    rows = ",\n".join([_row_text(c) for c in db.candidates])
    block = "[\n" + rows + "\n  ]" if rows else "[]"
    # the header without its closing "\n}", then the rows as its last key
    return header[:-2] + ',\n  "candidates": ' + block + "\n}\n"


def loads_database(text: str) -> Database:
    """The database in ``text``, which must be its filter set's whole
    enumeration as this version writes it; else a :class:`StoreError`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode
        raise StoreError(f"malformed JSON document: {exc!r}") from exc
    try:
        filter_set = doc["filter_set"]
        rows = list(doc["candidates"])
        known = filter_set in FILTER_SETS
    except (KeyError, TypeError, ValueError) as exc:  # a missing key or a wrong shape
        raise StoreError(f"malformed database: {exc!r}") from exc
    if not known:
        raise StoreError(f"unknown filter set {filter_set!r}")
    # one point per distinct (r, a), built and oriented once for this load:
    # the full database has 38 across its 472 rows
    point = functools.cache(SingularPoint)
    db = Database(filter_set, tuple([_rebuild_row(data, point) for data in rows]))
    written = dumps_database(db)
    # the tool's own file is this text exactly, accepted by one comparison;
    # any other text is compared as compact JSON, which tells every value,
    # type and key order apart, and on a mismatch the rows are compared to
    # name the first
    if text != written:
        ours = json.loads(written)
        if json.dumps(ours) != json.dumps(doc):
            for c, row, data in zip(db.candidates, ours["candidates"], rows):
                if json.dumps(row) != json.dumps(data):
                    raise StoreError(f"stored row for {c.id!r} disagrees with recomputation")
            raise StoreError("the header is not the one this version writes")
    # the key is exact for every enumerated degree; a row with another degree
    # is refused, by this check or the digests below
    keys = [canonical_order(c) for c in db.candidates]
    for before, after, candidate in zip(keys, keys[1:], db.candidates[1:]):
        # one comparison per pair; only a failing pair is told apart
        if before >= after:
            if before == after:
                raise StoreError(f"duplicate candidate {candidate.id!r}")
            raise StoreError(f"candidate {candidate.id!r} is out of canonical order")
    # imported here, not at the top: hashlib loads OpenSSL, a cost every
    # command would pay at start-up, whether it loads a database or not
    import hashlib

    # the rows are in canonical order, so each index's rows are one run: the
    # database is complete with one run per index of the digests, INDEX_SET
    expected = ID_DIGESTS[filter_set]
    runs = 0
    for q, rows_at_q in itertools.groupby(db.candidates, key=lambda c: c.q):
        found = [c.id for c in rows_at_q]
        digest = hashlib.sha256("\n".join(found).encode()).hexdigest()
        if (len(found), digest) != expected.get(q):
            raise StoreError(f"the rows at index {q} are not the {filter_set!r} enumeration")
        runs += 1
    if runs != len(expected):
        missing = ", ".join(map(str, sorted(expected.keys() - db.counts())))
        raise StoreError(
            f"this {filter_set!r} database has no rows at q = {missing}: it is incomplete"
        )
    return db


def save_database(db: Database, path: str | os.PathLike) -> None:
    """Write atomically: the target never holds a half-written database.

    A symlink is followed, so the link stays and its target gets the
    database.  The file gets mode ``0o666`` less the umask, as ``open``
    would give it: the temporary file is created with that mode, not
    through ``tempfile``, whose files are ``0o600``.
    """
    path = os.path.realpath(path)
    # 64 random bits: a name that exists already is an error, not retried
    tmp = os.path.join(os.path.dirname(path), ".qfano-db-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(dumps_database(db))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_database(path: str | os.PathLike) -> Database:
    return loads_database(read_input(path, "database file", StoreError))
