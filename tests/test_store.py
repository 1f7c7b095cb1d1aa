import collections
import copy
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qfano
from qfano import riemann_roch, store
from qfano.arith import format_rational
from qfano.enumeration import FILTER_SETS, INDEX_SET, Candidate
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
def full_database(full_db):
    return Database("default", tuple(full_db))


@pytest.fixture(scope="module")
def partial_db(full_db):
    """The rows of indices 6 and 8 alone.

    A load refuses it as incomplete, and only after every other check: so a
    test that edits it and pins the message of the refusal sees the check
    that message names fire first, at a small part of a full load's cost.
    """
    return Database("default", tuple(c for c in full_db if c.q in (6, 8)))


def _incomplete(name, missing):
    return f"this {name!r} database has no rows at q = {', '.join(map(str, missing))}: it is incomplete"


@pytest.fixture(scope="module")
def q8_db(full_db):
    return Database("default", tuple(c for c in full_db if c.q == 8))


@contextmanager
def _index_8_alone():
    """A store whose default filter set has rows at index 8 alone, so that
    the database of that index is complete and loads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(store.ID_DIGESTS, "default", {8: store.ID_DIGESTS["default"][8]})
        yield


def test_round_trip_is_byte_exact(full_database):
    text = dumps_database(full_database)
    assert text.endswith("\n")
    again = loads_database(text)
    assert again == full_database
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


def test_text_is_the_indented_json_of_the_document(full_db, capped_db, partial_db):
    # the writer renders rows from a template, not through json: each text
    # must still be json's indent=2 encoding of the document, byte for byte,
    # and a whole database loads back by the exact-text comparison, while
    # one that lacks an index is refused, naming what it lacks
    pinned = [
        (Database("default", tuple(full_db)), None),
        (Database("capped", tuple(capped_db)), None),
        (Database("default", tuple(c for c in full_db if c.q == 5)),
         _incomplete("default", [q for q in INDEX_SET if q != 5])),
        (Database("default", ()), _incomplete("default", INDEX_SET)),
        (partial_db, _incomplete("default", [q for q in INDEX_SET if q not in (6, 8)])),
        (Database("capped", tuple(c for c in capped_db if c.q in (8, 9))),
         _incomplete("capped", [q for q in INDEX_SET if q not in (8, 9)])),
    ]
    for db, refusal in pinned:
        text = dumps_database(db)
        assert text == json.dumps(_document(db), indent=2) + "\n"
        if refusal is None:
            assert loads_database(text) == db
        else:
            with pytest.raises(StoreError) as refused:
                loads_database(text)
            assert str(refused.value) == refusal


@pytest.mark.parametrize("q", INDEX_SET)
@pytest.mark.parametrize("name", ["default", "capped"])
def test_database_without_an_index_is_refused(name, q, full_db, capped_db):
    # every index of either set has rows, so a database without one is
    # incomplete: "no candidate qualifies" read off it could be false
    rows = {"default": full_db, "capped": capped_db}[name]
    text = dumps_database(Database(name, tuple(c for c in rows if c.q != q)))
    with pytest.raises(StoreError) as refused:
        loads_database(text)
    assert str(refused.value) == _incomplete(name, [q])


def test_built_and_loaded_candidates_keep_their_field_types(full_db, capped_db):
    # an int where a Fraction belongs writes the same text, since both have
    # as_integer_ratio, so the load's text comparison cannot catch it
    for name, built in (("default", tuple(full_db)), ("capped", tuple(capped_db))):
        loaded = loads_database(dumps_database(Database(name, built))).candidates
        assert len(loaded) == len(built)
        for c in built + loaded:
            for value in (c.sigma, c.minus_k3, c.minus_k_c2, c.a3):
                assert type(value) is Fraction, c.id
            assert type(c.dims) is tuple and len(c.dims) == c.q, c.id
            assert all(type(d) is int for d in c.dims), c.id
            assert type(c.genus) is int, c.id


def _counting_chi(monkeypatch) -> collections.Counter:
    """Count the ``chi`` calls per ``FanoInput`` that go through the module's ``chi``."""
    calls = collections.Counter()
    raw = riemann_roch.chi

    def counting(k, fano):
        calls[fano] += 1
        return raw(k, fano)

    monkeypatch.setattr(riemann_roch, "chi", counting)
    return calls


def test_a_candidate_costs_q_plus_one_chi_calls(full_db, monkeypatch):
    # dims evaluates chi at k = 1..q and the genus chi(q) again
    calls = _counting_chi(monkeypatch)
    for c in full_db[::37]:
        assert Candidate.from_parts(c.q, c.basket, c.a3) == c
        assert calls[c.fano] == c.q + 1


def test_a_load_of_the_full_database_makes_2406_chi_calls(db_path, monkeypatch):
    text = db_path.read_text(encoding="utf-8")
    calls = _counting_chi(monkeypatch)
    db = loads_database(text)
    assert len(db.candidates) == 472
    assert sum(calls.values()) == 2_406
    assert calls == {c.fano: c.q + 1 for c in db.candidates}


def test_counts(full_database, partial_db):
    assert full_database.counts() == {q: n for q, (n, _) in store.ID_DIGESTS["default"].items()}
    assert partial_db.counts() == {6: 11, 8: 10}


def test_file_round_trip(full_database, tmp_path):
    path = tmp_path / "db.json"
    save_database(full_database, path)
    loaded = load_database(path)
    assert loaded.candidates == full_database.candidates
    assert dumps_database(loaded) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_saved_database_gets_the_umask_mode(umask, tmp_path):
    # as open() would make it: 0o666 less the umask, for a new file and for
    # one replaced; the umask is set in a fresh interpreter, not in this one
    src = str(Path(qfano.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = tmp_path / "db.json"
    script = (
        "import sys\n"
        "from qfano.store import Database, save_database\n"
        "save_database(Database('default', ()), sys.argv[1])\n"
    )
    for _ in range(2):
        subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, umask=umask, check=True, capture_output=True, timeout=60,
        )
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db.json"]


def test_save_through_a_symlink_writes_its_target(full_database, tmp_path):
    target = tmp_path / "target.json"
    target.write_text("{}", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    save_database(full_database, link)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text(encoding="utf-8") == dumps_database(full_database)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_failed_save_leaves_the_old_file_and_no_temporary(full_database, tmp_path, monkeypatch):
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
        save_database(full_database, path)
    # the write got part of the way into a temporary file
    assert len(written) == 1 and written[0] > 0
    assert path.read_text(encoding="utf-8") == "the old database\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db.json"]


#: The refusal of an edit of the first row of ``partial_db``.
FIRST_ROW_REFUSAL = "stored row for 'q6-5.2_7.1-a12.35' disagrees with recomputation"


def test_tampered_genus_is_rejected(partial_db):
    text = dumps_database(partial_db)
    m = re.search(r'"genus": (\d+)', text)
    bumped = text[: m.start()] + f'"genus": {int(m.group(1)) + 1}' + text[m.end():]
    with pytest.raises(StoreError, match=FIRST_ROW_REFUSAL):
        loads_database(bumped)


def test_tampered_dims_are_rejected(partial_db):
    text = dumps_database(partial_db)
    m = re.search(r'"dims": \[\s*(-?\d+)', text)
    bumped = (
        text[: m.start(1)] + str(int(m.group(1)) + 2) + text[m.end(1):]
    )
    with pytest.raises(StoreError, match=FIRST_ROW_REFUSAL):
        loads_database(bumped)


def test_tampered_degree_is_rejected(partial_db):
    # -K^3 must equal q^3 * A^3 after the reload recomputes it
    text = dumps_database(partial_db)
    doc = json.loads(text)
    doc["candidates"][0]["minus_k3"] = "999/7"
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError, match=FIRST_ROW_REFUSAL):
            loads_database(encode(doc))


def test_unknown_format_version(partial_db):
    doc = json.loads(dumps_database(partial_db))
    doc["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(StoreError, match="header is not the one this version writes"):
        loads_database(json.dumps(doc))


def test_count_mismatch(partial_db):
    doc = json.loads(dumps_database(partial_db))
    doc["count"] += 1
    with pytest.raises(StoreError, match="header is not the one this version writes"):
        loads_database(json.dumps(doc))


def test_named_filter_set_must_match_config(partial_db):
    doc = json.loads(dumps_database(partial_db))
    doc["filter_set"] = "capped"  # config snapshot still says default
    with pytest.raises(StoreError, match="header is not the one this version writes"):
        loads_database(json.dumps(doc))


def test_unnamed_filter_set_is_refused(partial_db):
    # every database names its filter set: null is not a name
    doc = json.loads(dumps_database(partial_db))
    doc["filter_set"] = None
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError) as refused:
            loads_database(encode(doc))
        assert str(refused.value) == "unknown filter set None"


def test_unknown_filter_set_is_rejected(partial_db):
    doc = json.loads(dumps_database(partial_db))
    for name in ("no-such-set", "Default", "", 5, True, ["default"], {}):
        doc["filter_set"] = name
        with pytest.raises(StoreError, match="^(unknown filter set|malformed database: TypeError)"):
            loads_database(json.dumps(doc))


def test_rows_out_of_canonical_order_are_rejected(partial_db):
    doc = json.loads(dumps_database(partial_db))
    rows = doc["candidates"]
    rows[3], rows[4] = rows[4], rows[3]
    with pytest.raises(StoreError, match="canonical order"):
        loads_database(json.dumps(doc))


def test_duplicate_rows_are_rejected(partial_db):
    doc = json.loads(dumps_database(partial_db))
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
    # is refused by the digest check unless it holds whole indices, and then
    # as incomplete
    first_of_kind = {}
    whole = []
    for i, (a, b) in enumerate(zip(full_db, full_db[1:])):
        for rows in ((a, b), (b, a), (a, a)):
            text = dumps_database(Database("default", rows))
            expected = _order_refusal(rows) or _digest_refusal(rows, full_db)
            if expected is None:
                held = sorted({c.q for c in rows})
                whole.append(held)
                expected = _incomplete("default", [q for q in INDEX_SET if q not in held])
            with pytest.raises(StoreError) as refused:
                loads_database(text)
            assert str(refused.value) == expected
        kind = "q falls" if a.q != b.q else "basket only" if a.a3 == b.a3 else "degree"
        first_of_kind.setdefault(kind, i)
    assert sorted(first_of_kind) == ["basket only", "degree", "q falls"]
    # the pairs that hold whole indices: the two rows of q = 9 and of q = 13,
    # and the one row of q = 17 with that of q = 19
    assert whole == [[9], [13], [17, 19]]
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
def test_header_types_and_keys_are_strict(q8_db, edit):
    # in a store where index 8 alone is complete, the document loads
    # unedited and is refused edited
    doc = json.loads(dumps_database(q8_db))
    with _index_8_alone():
        for encode in ENCODINGS.values():
            assert loads_database(encode(doc)) == q8_db
        HEADER_EDITS[edit](doc)
        for encode in ENCODINGS.values():
            with pytest.raises(StoreError):
                loads_database(encode(doc))


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_header_edit_is_reported_as_the_header(partial_db, edit):
    # every row still re-serialises to itself, so no row may be named
    doc = json.loads(dumps_database(partial_db))
    HEADER_EDITS[edit](doc)
    for encode in ENCODINGS.values():
        with pytest.raises(StoreError, match="header is not the one this version writes"):
            loads_database(encode(doc))


def test_tampered_row_is_refused_under_optimize(db_path, full_db):
    # python -O strips assert statements; neither the re-verification nor
    # the completeness check may be one
    script = (
        "import json, sys\n"
        "from qfano.store import StoreError, loads_database\n"
        "full = json.loads(open(sys.argv[1], encoding='utf-8').read())\n"
        "tampered = json.loads(json.dumps(full))\n"
        "tampered['candidates'][1]['genus'] -= 1\n"
        "q8 = [row for row in full['candidates'] if row['q'] == 8]\n"
        "for text in (json.dumps(tampered, indent=2) + '\\n', json.dumps(tampered),\n"
        "             json.dumps(dict(full, count=len(q8), candidates=q8)),\n"
        "             json.dumps(dict(full, count=0, candidates=[]))):\n"
        "    try:\n"
        "        loads_database(text)\n"
        "    except StoreError as exc:\n"
        "        print(exc)\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = str(Path(qfano.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, str(db_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    tampered = f"stored row for {full_db[1].id!r} disagrees with recomputation"
    assert result.stdout.splitlines() == [
        tampered, tampered,
        _incomplete("default", [q for q in INDEX_SET if q != 8]),
        _incomplete("default", INDEX_SET),
    ]


@pytest.mark.parametrize("index", [25, 1000003])
def test_huge_basket_index_is_refused_before_recomputing(partial_db, monkeypatch, index):
    # a row is recomputed in time linear in its largest basket index, so an
    # index no basket can have must be refused before that work starts
    def unreachable(*args, **kwargs):
        raise AssertionError("the row was recomputed")

    doc = json.loads(dumps_database(partial_db))
    doc["candidates"][0]["basket"] = [[index, 1]]
    monkeypatch.setattr(Candidate, "from_parts", unreachable)
    with pytest.raises(StoreError, match="basket index above 24"):
        loads_database(json.dumps(doc))


def _not_an_integer(field, value):
    return f"{field} in a stored row must be a JSON integer, got {value!r}"


#: JSON values that ``int()`` reads as 1, 2 and 3, none of them an integer.
NOT_INTEGERS = [True, 2.0, "3"]

# the rebuild has one guard for a row it cannot decode, and the integer and
# index checks raise past it: each refusal keeps its own message
ROW_REFUSALS = [
    ("q", "eight", _not_an_integer("q", "eight")),
    ("basket", 5, "malformed candidate row: TypeError(\"'int' object is not iterable\")"),
    ("basket", [[2, 2]], "malformed candidate row: NotCoprimeError('multiplier 0 is not coprime to index 2')"),
    ("a3", "-1/2", "malformed candidate row: ValueError('degree A^3 must be positive, got -1/2')"),
    ("basket", [[25, 1]], "basket index above 24 in a stored row"),
    # two faults in one basket: every pair is read as integers, then the
    # index bound is checked, then the points are built, so the first check
    # a fault fails names the row, wherever in the basket the fault sits
    ("basket", [[4, 2], [30, 1]], "basket index above 24 in a stored row"),
    ("basket", [[30, 1], ["x", 1]], _not_an_integer("basket index", "x")),
    *[("q", value, _not_an_integer("q", value)) for value in NOT_INTEGERS],
    *[("basket", [[value, 1]], _not_an_integer("basket index", value)) for value in NOT_INTEGERS],
    *[("basket", [[7, value]], _not_an_integer("basket orientation", value))
      for value in NOT_INTEGERS],
]


@pytest.mark.parametrize("key, value, message", ROW_REFUSALS)
def test_row_refusal_messages(partial_db, key, value, message):
    doc = json.loads(dumps_database(partial_db))
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
def test_row_must_reserialise_to_itself(partial_db, edit):
    doc = json.loads(dumps_database(partial_db))
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_document_loads_unchanged_or_is_refused(q8_db, data):
    # in a store where index 8 alone is complete, so that the document
    # edited loads unedited: a whole database would cost a full load per example
    text = data.draw(_edited_documents(json.loads(dumps_database(q8_db))))
    with _index_8_alone():
        try:
            loaded = loads_database(text)
        except StoreError:
            return
    # no edit leaves a valid database that differs from the one edited
    assert loaded == q8_db
