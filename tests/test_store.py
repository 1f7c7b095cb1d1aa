import json
import re

import pytest

from qfano.enumeration import DEFAULT_CONFIG, FILTER_SETS, enumerate_candidates
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
