"""Candidate databases on disk: canonical JSON, loaded back verbatim.

The file layout is fixed so that two runs producing the same candidates
produce byte-identical files (worker count, dict ordering, and platform
must not leak in).  Loading recomputes every row from ``(q, basket, A^3)``
and refuses files whose rows do not re-serialise to themselves (checked
with one comparison of the re-serialised array with the stored one; only
a mismatch walks the rows, to name the first bad one), whose
rows repeat a candidate or leave :meth:`Candidate.sort_key` order, whose
filter set has no name this version knows, or whose header has a key or a
value type :func:`dumps_database` does not write, so a database can be
trusted as input without re-running the enumeration.  A row whose basket
has an index above ``MAX_POINT_INDEX`` is refused before it is recomputed.
A consumer that quantifies over some indices calls
:meth:`Database.require_indices`, which refuses a named-filter-set database
with no rows at one of them.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .arith import format_rational, parse_rational
from .enumeration import (
    DEGREE_CAP,
    DEGREE_CAP_EXCEPTION,
    FILTER_FLAGS,
    FILTER_SETS,
    INDEX_SET,
    MAX_POINT_INDEX,
    Candidate,
    FilterConfig,
)
from .riemann_roch import Basket

FORMAT_VERSION = 1

#: The header fields :func:`dumps_database` writes; no other key is read.
_HEADER_KEYS = frozenset({"format_version", "filter_set", "config", "count", "candidates"})


class StoreError(ValueError):
    """The file is not a database this version can vouch for."""


@contextmanager
def _decoding(what: str) -> Iterator[None]:
    """Turn a missing field or a value of the wrong shape into a StoreError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed {what}: {exc!r}") from exc


def config_to_json(config: FilterConfig) -> dict[str, Any]:
    exc_q, exc_basket, exc_a3 = DEGREE_CAP_EXCEPTION
    return {
        "degree_cap": format_rational(DEGREE_CAP),
        "degree_cap_exception": {
            "q": exc_q,
            "basket": [[p.r, p.a] for p in exc_basket.points],
            "a3": format_rational(exc_a3),
        },
        "degree_cap_enforced": config.degree_cap_enforced,
        "enforce_vanishing": config.enforce_vanishing,
        "bm_inequality": config.bm_inequality,
        "nonnegativity": config.nonnegativity,
        "index_set": list(INDEX_SET),
    }


def _same_json(written: Any, read: Any) -> bool:
    """Whether ``read`` is what writing ``written`` gives (``1.0`` is not ``1``)."""
    return json.dumps(written) == json.dumps(read)


def config_from_json(data: dict[str, Any]) -> FilterConfig:
    """Read a config snapshot; anything but what config_to_json writes is refused."""
    with _decoding("filter config"):
        config = FilterConfig(**{flag: data[flag] is True for flag in FILTER_FLAGS})
    if not _same_json(config_to_json(config), data):
        raise StoreError(f"unsupported filter config snapshot: {data!r}")
    return config


def candidate_to_json(c: Candidate) -> dict[str, Any]:
    return {
        "q": c.q,
        "basket": [[p.r, p.a] for p in c.basket.points],
        "a3": format_rational(c.a3),
        "sigma": format_rational(c.sigma),
        "minus_k3": format_rational(c.minus_k3),
        "minus_k_c2": format_rational(c.minus_k_c2),
        "dims": list(c.dims),
        "genus": c.genus,
        "id": c.id,
    }


def _rebuild_row(data: dict[str, Any]) -> Candidate:
    """Recompute a row from its ``(q, basket, A^3)`` alone."""
    with _decoding("candidate row"):
        pairs = [(int(r), int(a)) for r, a in data["basket"]]
    if any(r > MAX_POINT_INDEX for r, _ in pairs):
        # no enumerated basket has such a point, and recomputing the row
        # would cost time linear in its index
        raise StoreError(f"basket index above {MAX_POINT_INDEX} in a stored row")
    with _decoding("candidate row"):
        return Candidate.from_parts(
            q=int(data["q"]), basket=Basket.from_pairs(pairs), a3=parse_rational(data["a3"])
        )


def _rebuild_rows(rows: list[Any]) -> tuple[Candidate, ...]:
    """Recompute every row; together they must re-serialise to the rows.

    One comparison of the two arrays' texts is the row-by-row comparison,
    since an array's text splits into its elements' texts in only one way.
    Only on a mismatch are the rows compared one by one, to name the first.
    """
    rebuilt = tuple(_rebuild_row(data) for data in rows)
    if json.dumps([candidate_to_json(c) for c in rebuilt]) != json.dumps(rows):
        bad = next(c for c, data in zip(rebuilt, rows)
                   if not _same_json(candidate_to_json(c), data))
        raise StoreError(f"stored row for {bad.id!r} disagrees with recomputation")
    return rebuilt


@dataclass(frozen=True, slots=True)
class Database:
    """An enumeration result: the filters used and what survived them."""

    config: FilterConfig
    candidates: tuple[Candidate, ...]
    filter_set: str | None = None
    version: int = FORMAT_VERSION

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.candidates:
            out[c.q] = out.get(c.q, 0) + 1
        return out

    def require_indices(self, indices: Iterable[int], consumer: str) -> None:
        """Refuse to serve ``consumer``, which quantifies over ``indices``, if
        this named-filter-set database has no rows at one of them.

        Every named filter set has rows at every index of ``INDEX_SET``, so
        such a database is incomplete, and "no candidate qualifies" read off
        it could be false.  Indices outside ``INDEX_SET`` never have rows.  A
        database without a filter set name is not checked.
        """
        if self.filter_set is None:
            return
        present = self.counts()
        missing = sorted(q for q in set(indices) if q in INDEX_SET and q not in present)
        if missing:
            raise StoreError(
                f"{consumer} needs candidates of index {', '.join(map(str, missing))}, "
                f"and this {self.filter_set!r} database has none: it is incomplete"
            )


def dumps_database(db: Database) -> str:
    doc = {
        "format_version": db.version,
        "filter_set": db.filter_set,
        "config": config_to_json(db.config),
        "count": len(db.candidates),
        "candidates": [candidate_to_json(c) for c in db.candidates],
    }
    return json.dumps(doc, indent=2) + "\n"


def loads_database(text: str) -> Database:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode
        raise StoreError(f"malformed JSON document: {exc!r}") from exc
    if not isinstance(doc, dict) or "candidates" not in doc:
        raise StoreError("not a candidate database")
    unknown = set(doc) - _HEADER_KEYS
    if unknown:
        raise StoreError(f"unknown header keys {sorted(unknown)}")
    with _decoding("database"):
        version = doc["format_version"]
        rows = list(doc["candidates"])
        count = doc["count"]
        filter_set = doc["filter_set"]
        config_data = doc["config"]
        known = filter_set is None or filter_set in FILTER_SETS
    if type(version) is not int or type(count) is not int:
        raise StoreError("format_version and count must be JSON integers")
    if version != FORMAT_VERSION:
        raise StoreError(f"unsupported format version {version}")
    if not known:
        raise StoreError(f"unknown filter set {filter_set!r}")
    candidates = _rebuild_rows(rows)
    if count != len(candidates):
        raise StoreError("stored count disagrees with the candidate list")
    keys = [c.sort_key() for c in candidates]
    for before, after, candidate in zip(keys, keys[1:], candidates[1:]):
        if before == after:
            raise StoreError(f"duplicate candidate {candidate.id!r}")
        if before > after:
            raise StoreError(f"candidate {candidate.id!r} is out of canonical order")
    config = config_from_json(config_data)
    if filter_set is not None and config != FILTER_SETS[filter_set]:
        raise StoreError(
            f"config snapshot does not match the named filter set {filter_set!r}"
        )
    return Database(
        config=config,
        candidates=candidates,
        filter_set=filter_set,
        version=version,
    )


def save_database(db: Database, path: str | os.PathLike) -> None:
    """Write atomically: the target never holds a half-written database."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".qfano-db-", dir=directory, text=True)
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
    with open(path, "r", encoding="utf-8") as handle, _decoding("database file"):
        text = handle.read()
    return loads_database(text)
