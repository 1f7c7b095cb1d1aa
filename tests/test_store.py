import copy
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from qfano.enumeration import DEFAULT_CONFIG, FILTER_SETS, Candidate, enumerate_candidates
from qfano.store import (
    FORMAT_VERSION,
    Database,
    StoreError,
    dumps_database,
    load_database,
    loads_database,
    save_database,
)


@pytest.fixture(scope="module")
def small_db():
    candidates = enumerate_candidates(6) + enumerate_candidates(8)
    return Database(DEFAULT_CONFIG, tuple(candidates), filter_set="default")


def test_round_trip_is_byte_exact(small_db):
    text = dumps_database(small_db)
    assert text.endswith("\n")
    again = loads_database(text)
    assert again.config == small_db.config
    assert again.candidates == small_db.candidates
    assert again.filter_set == "default"
    assert again.version == FORMAT_VERSION
    assert dumps_database(again) == text


def test_counts(small_db):
    assert small_db.counts() == {6: 11, 8: 10}


def test_file_round_trip(small_db, tmp_path):
    path = tmp_path / "db.json"
    save_database(small_db, path)
    loaded = load_database(path)
    assert loaded.candidates == small_db.candidates
    assert dumps_database(loaded) == path.read_text(encoding="utf-8")


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
    with pytest.raises(StoreError):
        loads_database(json.dumps(doc))


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


def test_unnamed_filter_set_roundtrips(small_db):
    bare = Database(FILTER_SETS["capped"], small_db.candidates[:3], filter_set=None)
    again = loads_database(dumps_database(bare))
    assert again.filter_set is None
    assert again.config == FILTER_SETS["capped"]


def test_unknown_filter_set_is_rejected(small_db):
    doc = json.loads(dumps_database(small_db))
    for name in ("no-such-set", "Default", "", 5, True):
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


# each edit keeps the header's values, so a loader that coerces types or
# ignores keys it does not know would return the original database
HEADER_EDITS = {
    "format-version-as-string": lambda doc: doc.update(format_version=str(doc["format_version"])),
    "format-version-as-bool": lambda doc: doc.update(format_version=True),
    "format-version-as-float": lambda doc: doc.update(format_version=float(doc["format_version"])),
    "count-as-float": lambda doc: doc.update(count=float(doc["count"])),
    "count-as-string": lambda doc: doc.update(count=str(doc["count"])),
    "extra-key": lambda doc: doc.update(note="checked"),
}


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_header_types_and_keys_are_strict(small_db, edit):
    doc = json.loads(dumps_database(small_db))
    HEADER_EDITS[edit](doc)
    with pytest.raises(StoreError):
        loads_database(json.dumps(doc))


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


def _unreduced_a3(row):
    num, den = row["a3"].split("/")
    row["a3"] = f"{2 * int(num)}/{2 * int(den)}"


def _mirror_orientation(row):
    row["basket"] = [[r, r - a] for r, a in row["basket"]]


def _reverse_keys(row):
    items = list(row.items())
    row.clear()
    row.update(reversed(items))


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
    with pytest.raises(StoreError, match=named):
        loads_database(json.dumps(doc))
    # with a later row bad too, the first bad row is the one named
    ROW_EDITS["tampered-genus"](doc["candidates"][4])
    with pytest.raises(StoreError, match=named):
        loads_database(json.dumps(doc))


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
    return json.dumps(doc)


@pytest.fixture(scope="module")
def q8_db():
    return Database(DEFAULT_CONFIG, tuple(enumerate_candidates(8)), filter_set="default")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_document_loads_unchanged_or_is_refused(q8_db, data):
    text = data.draw(_edited_documents(json.loads(dumps_database(q8_db))))
    try:
        loaded = loads_database(text)
    except StoreError:
        return
    # the one edit that leaves a valid database is filter_set swapped to null:
    # then it must be exactly the database the edited text describes
    assert json.loads(text)["filter_set"] is None
    assert json.dumps(json.loads(dumps_database(loaded))) == text
