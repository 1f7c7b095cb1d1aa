import copy
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qfano
from qfano import store
from qfano.arith import format_rational
from qfano.enumeration import FILTER_SETS, INDEX_SET, Candidate, enumerate_candidates
from qfano.store import (
    FORMAT_VERSION,
    Database,
    StoreError,
    config_to_json,
    dumps_database,
    load_database,
    loads_database,
    save_database,
)

from test_enumeration import sort_key

#: Two spellings of one document.  A load compares a text in the tool's own
#: layout with the text it would write, and any other text as compact JSON,
#: so each refusal is checked on a text of each kind.
ENCODINGS = {
    "indent": lambda doc: json.dumps(doc, indent=2) + "\n",
    "compact": json.dumps,
}


def _document(db):
    """The stored document, built as plain values: the oracle of the writer's text."""
    return {
        "format_version": FORMAT_VERSION,
        "filter_set": db.filter_set,
        "config": config_to_json(FILTER_SETS[db.filter_set]),
        "count": len(db.candidates),
        "candidates": [
            {
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
            for c in db.candidates
        ],
    }


@pytest.fixture(scope="module")
def small_db():
    candidates = enumerate_candidates(6) + enumerate_candidates(8)
    return Database("default", tuple(candidates))


def test_round_trip_is_byte_exact(small_db):
    text = dumps_database(small_db)
    assert text.endswith("\n")
    again = loads_database(text)
    assert again == small_db
    assert json.loads(text)["format_version"] == FORMAT_VERSION
    assert dumps_database(again) == text
    # other spellings of the same document load as the same database
    doc = json.loads(text)
    for other in (json.dumps(doc), json.dumps(doc, indent=4)):
        assert loads_database(other) == again


def test_full_database_round_trips_byte_for_byte(db_path):
    text = db_path.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ffd23041d8f681f97ffebca3c7edc5f47a85b6089f0ae0de8088c3e8ee432fb"
    )
    assert dumps_database(loads_database(text)) == text


def _pinned_databases(full_db):
    capped = enumerate_candidates(INDEX_SET, FILTER_SETS["capped"])
    yield Database("default", tuple(full_db))
    yield Database("capped", tuple(capped))
    yield Database("default", tuple(c for c in full_db if c.q == 5))
    yield Database("default", ())
    yield Database("capped", tuple(c for c in capped if c.q in (8, 9)))


def test_text_is_the_indented_json_of_the_document(full_db):
    # the writer renders rows from a template, not through json: each text
    # must still be json's indent=2 encoding of the document, byte for byte,
    # and load back by the exact-text comparison
    for db in _pinned_databases(full_db):
        text = dumps_database(db)
        assert text == json.dumps(_document(db), indent=2) + "\n"
        assert loads_database(text) == db


def test_built_and_loaded_candidates_keep_their_field_types(full_db):
    # an int where a Fraction belongs writes the same text, since both have
    # as_integer_ratio, so the load's text comparison cannot catch it
    capped = enumerate_candidates(INDEX_SET, FILTER_SETS["capped"])
    for name, built in (("default", tuple(full_db)), ("capped", tuple(capped))):
        loaded = loads_database(dumps_database(Database(name, built))).candidates
        assert len(loaded) == len(built)
        for c in built + loaded:
            for value in (c.sigma, c.minus_k3, c.minus_k_c2, c.a3):
                assert type(value) is Fraction, c.id
            assert type(c.dims) is tuple and len(c.dims) == c.q, c.id
            assert all(type(d) is int for d in c.dims), c.id
            assert type(c.genus) is int, c.id


def test_counts(small_db):
    assert small_db.counts() == {6: 11, 8: 10}


def test_file_round_trip(small_db, tmp_path):
    path = tmp_path / "db.json"
    save_database(small_db, path)
    loaded = load_database(path)
    assert loaded.candidates == small_db.candidates
    assert dumps_database(loaded) == path.read_text(encoding="utf-8")


def test_failed_save_leaves_the_old_file_and_no_temporary(small_db, tmp_path, monkeypatch):
    path = tmp_path / "db.json"
    path.write_text("the old database\n", encoding="utf-8")
    real_fdopen = os.fdopen
    written = []

    class HalfWrite:
        """A file that takes half of what it is given, then reports a full disk."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            written.extend(p.stat().st_size for p in tmp_path.glob(".qfano-db-*"))
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(store.os, "fdopen", lambda fd, *a, **k: HalfWrite(real_fdopen(fd, *a, **k)))
    with pytest.raises(OSError, match="No space left"):
        save_database(small_db, path)
    # the write got part of the way into a temporary file
    assert len(written) == 1 and written[0] > 0
    assert path.read_text(encoding="utf-8") == "the old database\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db.json"]


def test_tampered_genus_is_rejected(small_db):
    text = dumps_database(small_db)
    m = re.search(r'"genus": (\d+)', text)
    bumped = text[: m.start()] + f'"genus": {int(m.group(1)) + 1}' + text[m.end():]
    with pytest.raises(StoreError):
        loads_database(bumped)


def test_tampered_dims_are_rejected(small_db):
    text = dumps_database(small_db)
    m = re.search(r'"dims": \[\s*(-?\d+)', text)
    bumped = (
        text[: m.start(1)] + str(int(m.group(1)) + 2) + text[m.end(1):]
    )
    with pytest.raises(StoreError):
        loads_database(bumped)


def test_tampered_degree_is_rejected(small_db):
    # -K^3 must equal q^3 * A^3 after the reload recomputes it
    text = dumps_database(small_db)
    doc = json.loads(text)
    doc["candidates"][0]["minus_k3"] = "999/7"
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError):
            loads_database(encode(doc))


def test_unknown_format_version(small_db):
    doc = json.loads(dumps_database(small_db))
    doc["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(StoreError):
        loads_database(json.dumps(doc))


def test_count_mismatch(small_db):
    doc = json.loads(dumps_database(small_db))
    doc["count"] += 1
    with pytest.raises(StoreError):
        loads_database(json.dumps(doc))


def test_named_filter_set_must_match_config(small_db):
    doc = json.loads(dumps_database(small_db))
    doc["filter_set"] = "capped"  # config snapshot still says default
    with pytest.raises(StoreError):
        loads_database(json.dumps(doc))


def test_unnamed_filter_set_is_refused(small_db):
    # every database names its filter set: null is not a name
    doc = json.loads(dumps_database(small_db))
    doc["filter_set"] = None
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError) as refused:
            loads_database(encode(doc))
        assert str(refused.value) == "unknown filter set None"


def test_unknown_filter_set_is_rejected(small_db):
    doc = json.loads(dumps_database(small_db))
    for name in ("no-such-set", "Default", "", 5, True, ["default"], {}):
        doc["filter_set"] = name
        with pytest.raises(StoreError):
            loads_database(json.dumps(doc))


def test_rows_out_of_canonical_order_are_rejected(small_db):
    doc = json.loads(dumps_database(small_db))
    rows = doc["candidates"]
    rows[3], rows[4] = rows[4], rows[3]
    with pytest.raises(StoreError, match="canonical order"):
        loads_database(json.dumps(doc))


def test_duplicate_rows_are_rejected(small_db):
    doc = json.loads(dumps_database(small_db))
    doc["candidates"].insert(5, doc["candidates"][5])
    doc["count"] += 1
    with pytest.raises(StoreError, match="duplicate"):
        loads_database(json.dumps(doc))


def _order_refusal(rows):
    """The message a check of ``rows`` by the ``sort_key`` oracle gives, or None."""
    keys = [sort_key(c) for c in rows]
    for before, after, candidate in zip(keys, keys[1:], rows[1:]):
        if before == after:
            return f"duplicate candidate {candidate.id!r}"
        if before > after:
            return f"candidate {candidate.id!r} is out of canonical order"
    return None


def _digest_refusal(rows, full_db):
    """The message the digest check gives for in-order default-set ``rows``, or None."""
    for q in dict.fromkeys(c.q for c in rows):
        if [c for c in rows if c.q == q] != [c for c in full_db if c.q == q]:
            return f"the rows at index {q} are not the 'default' enumeration"
    return None


def test_order_check_agrees_with_sort_key(full_db):
    # each adjacent pair of the full database as a two-row database, in
    # order, swapped and doubled.  The order check runs before the digest
    # check, so a swapped or doubled pair gets its message; a pair in order
    # is refused by the digest check unless it holds whole indices
    first_of_kind = {}
    loaded = []
    for i, (a, b) in enumerate(zip(full_db, full_db[1:])):
        for rows in ((a, b), (b, a), (a, a)):
            text = dumps_database(Database("default", rows))
            expected = _order_refusal(rows) or _digest_refusal(rows, full_db)
            if expected is None:
                assert loads_database(text).candidates == rows
                loaded.append(sorted({c.q for c in rows}))
            else:
                with pytest.raises(StoreError) as refused:
                    loads_database(text)
                assert str(refused.value) == expected
        kind = "q falls" if a.q != b.q else "basket only" if a.a3 == b.a3 else "degree"
        first_of_kind.setdefault(kind, i)
    assert sorted(first_of_kind) == ["basket only", "degree", "q falls"]
    # the pairs that hold whole indices: the two rows of q = 9 and of q = 13,
    # and the one row of q = 17 with that of q = 19
    assert loaded == [[9], [13], [17, 19]]
    # the same refusals in a whole stored database
    for i in first_of_kind.values():
        swapped = list(full_db)
        swapped[i:i + 2] = swapped[i + 1], swapped[i]
        doubled = list(full_db)
        doubled.insert(i, doubled[i])
        for rows in (swapped, doubled):
            with pytest.raises(StoreError) as refused:
                loads_database(dumps_database(Database("default", tuple(rows))))
            assert str(refused.value) == _order_refusal(rows)


def _reverse_keys(row):
    items = list(row.items())
    row.clear()
    row.update(reversed(items))


# each edit keeps the header's values, so a loader that coerces types or
# ignores keys it does not know would return the original database
HEADER_EDITS = {
    "format-version-as-string": lambda doc: doc.update(format_version=str(doc["format_version"])),
    "format-version-as-bool": lambda doc: doc.update(format_version=True),
    "format-version-as-float": lambda doc: doc.update(format_version=float(doc["format_version"])),
    "count-as-float": lambda doc: doc.update(count=float(doc["count"])),
    "count-as-string": lambda doc: doc.update(count=str(doc["count"])),
    "extra-key": lambda doc: doc.update(note="checked"),
    "keys-reordered": _reverse_keys,
}


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_header_types_and_keys_are_strict(small_db, edit):
    doc = json.loads(dumps_database(small_db))
    HEADER_EDITS[edit](doc)
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError):
            loads_database(encode(doc))


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_header_edit_is_reported_as_the_header(small_db, edit):
    # every row still re-serialises to itself, so no row may be named
    doc = json.loads(dumps_database(small_db))
    HEADER_EDITS[edit](doc)
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError, match="header is not the one this version writes"):
            loads_database(encode(doc))


def test_tampered_row_is_refused_under_optimize():
    # python -O strips assert statements; the re-verification must not be one
    script = (
        "import json\n"
        "from qfano.enumeration import enumerate_candidates\n"
        "from qfano.store import Database, StoreError, dumps_database, loads_database\n"
        "db = Database('default', tuple(enumerate_candidates(8)))\n"
        "doc = json.loads(dumps_database(db))\n"
        "doc['candidates'][1]['genus'] -= 1\n"
        "for text in (json.dumps(doc, indent=2) + '\\n', json.dumps(doc)):\n"
        "    try:\n"
        "        loads_database(text)\n"
        "    except StoreError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = str(Path(qfano.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("index", [25, 1000003])
def test_huge_basket_index_is_refused_before_recomputing(small_db, monkeypatch, index):
    # a row is recomputed in time linear in its largest basket index, so an
    # index no basket can have must be refused before that work starts
    def unreachable(*args, **kwargs):
        raise AssertionError("the row was recomputed")

    doc = json.loads(dumps_database(small_db))
    doc["candidates"][0]["basket"] = [[index, 1]]
    monkeypatch.setattr(Candidate, "from_parts", unreachable)
    with pytest.raises(StoreError, match="basket index above 24"):
        loads_database(json.dumps(doc))


# the rebuild has one guard for a row it cannot decode, and the index check
# raises past it: each refusal keeps its own message
ROW_REFUSALS = [
    ("q", "eight", "malformed candidate row: ValueError(\"invalid literal for int() with base 10: 'eight'\")"),
    ("basket", 5, "malformed candidate row: TypeError(\"'int' object is not iterable\")"),
    ("basket", [[2, 2]], "malformed candidate row: NotCoprimeError('multiplier 0 is not coprime to index 2')"),
    ("a3", "-1/2", "malformed candidate row: ValueError('degree A^3 must be positive, got -1/2')"),
    ("basket", [[25, 1]], "basket index above 24 in a stored row"),
    # two faults in one basket: every pair is read as integers, then the
    # index bound is checked, then the points are built, so the first check
    # a fault fails names the row, wherever in the basket the fault sits
    ("basket", [[4, 2], [30, 1]], "basket index above 24 in a stored row"),
    ("basket", [[30, 1], ["x", 1]],
     "malformed candidate row: ValueError(\"invalid literal for int() with base 10: 'x'\")"),
]


@pytest.mark.parametrize("key, value, message", ROW_REFUSALS)
def test_row_refusal_messages(small_db, key, value, message):
    doc = json.loads(dumps_database(small_db))
    doc["candidates"][0][key] = value
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError) as refused:
            loads_database(encode(doc))
        assert str(refused.value) == message


def _unreduced_a3(row):
    num, den = row["a3"].split("/")
    row["a3"] = f"{2 * int(num)}/{2 * int(den)}"


def _mirror_orientation(row):
    row["basket"] = [[r, r - a] for r, a in row["basket"]]


# each edit leaves (q, basket, A^3) the same candidate, so a loader that
# parses the row back into values, or compares only the values it
# recomputes, would accept it
ROW_EDITS = {
    "unreduced-a3": _unreduced_a3,
    "genus-as-string": lambda row: row.update(genus=str(row["genus"])),
    "extra-key": lambda row: row.update(note="checked"),
    "mirror-orientation": _mirror_orientation,
    "dims-as-floats": lambda row: row.update(dims=[float(d) for d in row["dims"]]),
    "padded-sigma": lambda row: row.update(sigma=" " + row["sigma"]),
    "tampered-dims": lambda row: row["dims"].__setitem__(-1, row["dims"][-1] + 1),
    "tampered-genus": lambda row: row.update(genus=row["genus"] - 1),
    "tampered-sigma": lambda row: row.update(sigma="1/7"),
    "keys-reordered": _reverse_keys,
    "true-for-one": lambda row: row.update(dims=[d == 1 or d for d in row["dims"]]),
}


@pytest.mark.parametrize("edit", sorted(ROW_EDITS))
def test_row_must_reserialise_to_itself(small_db, edit):
    doc = json.loads(dumps_database(small_db))
    row = doc["candidates"][1]
    assert row["id"] == "q6-7.3-a2.7" and row["dims"][0] == 1
    ROW_EDITS[edit](row)
    named = "stored row for 'q6-7.3-a2.7' disagrees with recomputation"
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError, match=named):
            loads_database(encode(doc))
    # with a later row bad too, the first bad row is the one named
    ROW_EDITS["tampered-genus"](doc["candidates"][4])
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError, match=named):
            loads_database(encode(doc))


_SWAPS = (None, True, 0, 2.0, "", "1", "1/2", [], {}, [[1, 1]], [[2, 1]], [[0, 1]])


@st.composite
def _edited_documents(draw, doc):
    doc = copy.deepcopy(doc)
    where = draw(st.sampled_from(["header", "config", "row"]))
    if where == "header":
        target = doc
    elif where == "config":
        target = doc["config"]
    else:
        target = draw(st.sampled_from(doc["candidates"]))
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
    return ENCODINGS[draw(st.sampled_from(sorted(ENCODINGS)))](doc)


@pytest.fixture(scope="module")
def q8_db():
    return Database("default", tuple(enumerate_candidates(8)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_document_loads_unchanged_or_is_refused(q8_db, data):
    text = data.draw(_edited_documents(json.loads(dumps_database(q8_db))))
    try:
        loaded = loads_database(text)
    except StoreError:
        return
    # no edit leaves a valid database that differs from the one edited
    assert loaded == q8_db
