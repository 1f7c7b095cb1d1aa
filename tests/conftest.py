import time

import pytest

from qfano.enumeration import FILTER_SETS, INDEX_SET, enumerate_candidates
from qfano.store import Database, save_database

#: Wall-clock seconds spent building the session database, keyed by name.
BUILD_SECONDS: dict[str, float] = {}


@pytest.fixture(scope="session")
def full_db():
    """Every candidate of every admissible index, default filters."""
    t0 = time.monotonic()
    candidates = enumerate_candidates(INDEX_SET)
    BUILD_SECONDS["full"] = time.monotonic() - t0
    return candidates


@pytest.fixture(scope="session")
def capped_db():
    """Every candidate of every admissible index, capped filters."""
    return enumerate_candidates(INDEX_SET, FILTER_SETS["capped"])


@pytest.fixture(scope="session")
def db_path(full_db, tmp_path_factory):
    """The same database, saved once for commands that want a file."""
    path = tmp_path_factory.mktemp("db") / "candidates.json"
    save_database(
        Database("default", tuple(full_db)),
        path,
    )
    return path
