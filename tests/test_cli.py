import json

import pytest

from qfano.cli import (
    EXIT_INTERNAL,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from qfano import cli, enumeration
from qfano.enumeration import DEFAULT_CONFIG, FILTER_FLAGS, INDEX_SET, enumerate_candidates
from qfano.store import Database, save_database

from test_enumeration import _recording_pool
from test_links import case_path


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_USAGE, EXIT_MISSING_INPUT, EXIT_INTERNAL}) == 4
    assert EXIT_OK == 0


def test_invalid_index_is_usage_error(capsys):
    assert main(["enumerate", "--q", "20"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_enumerate_requires_scope(capsys):
    assert main(["enumerate"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_database_file(capsys):
    assert main(["table", "--case", "q5", "--db", "/nonexistent/db.json"]) == (
        EXIT_MISSING_INPUT
    )
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--out", "--db"])
def test_unwritable_output_is_usage_error(option, tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.csv"
    assert main(["enumerate", "--q", "8", option, str(target)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"cannot write output: {target}" in err
    assert "not found" not in err
    assert not target.parent.exists()


def test_export_to_unwritable_path_is_usage_error(db_path, tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["export", "--db", str(db_path), "--out", str(target)]) == EXIT_USAGE
    assert "cannot write output" in capsys.readouterr().err


def test_enumerate_single_index_table(capsys):
    assert main(["enumerate", "--q", "6", "--format", "table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "q6-7.3-a2.7" in out
    assert "[7:3]" in out


def test_enumerate_writes_database_with_summary(tmp_path, capsys):
    db_file = tmp_path / "q6.json"
    assert main(["enumerate", "--q", "6", "--db", str(db_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert db_file.exists()
    # no --format requested: a summary line only, not a rendered table
    assert "11 candidates" in out
    assert "[7:3]" not in out


def test_enumerate_all_starts_one_pool(monkeypatch, tmp_path, capsys):
    sizes, jobs = [], []
    monkeypatch.setattr(enumeration, "Pool", _recording_pool(sizes, jobs))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    db = tmp_path / "db.json"
    assert main(["enumerate", "--all", "--jobs", "2", "--db", str(db)]) == EXIT_OK
    assert "472 candidates" in capsys.readouterr().out
    assert sizes == [2]
    assert sorted(job[0] for job in jobs[0]) == list(INDEX_SET)


def test_table_from_stored_database(db_path, capsys):
    assert main(["table", "--case", "q5", "--db", str(db_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "index 5 survey" in out
    assert "(2)" in out  # orientation decorations are collapsed in surveys
    assert "(2,2,3,6)" in out
    assert "1/2" in out


def test_table_all_cases_render(db_path, capsys):
    for case in ("q3", "q4", "q6", "q7", "q8"):
        assert main(["table", "--case", case, "--db", str(db_path)]) == EXIT_OK
        assert capsys.readouterr().out.strip()


def test_facts_pass_on_stored_database(db_path, capsys):
    assert main(["facts", "--db", str(db_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_wps_check_finds_the_match(db_path, capsys):
    code = main(
        ["wps", "check", "--weights", "1,1,2,3", "--db", str(db_path)]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "P(1,1,2,3)" in out
    assert "fano index q = 7" in out
    assert "match: q7-2.1_3.1-a1.6" in out

    code = main(["wps", "check", "--weights", "1,1,1,2", "--db", str(db_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "fano index q = 5" in out
    assert "match: q5-2.1-a1.2" in out


def test_wps_check_hypersurface(db_path, capsys):
    code = main(
        [
            "wps", "check",
            "--weights", "1,2,3,4,5",
            "--degree", "6",
            "--db", str(db_path),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "X6 in P(1,2,3,4,5)" in out
    assert "match: q9-2.1_4.1_5.2-a1.20" in out


def test_wps_check_rejects_bad_weights(capsys):
    assert main(["wps", "check", "--weights", "1,zero,3"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["wps", "check", "--weights", "1,2,3,4", "--degree", "99"]) == (
        EXIT_USAGE
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    [
        ["--weights", "1,1"],
        ["--weights", "1,1,1"],
        ["--weights", "1,1,1,1,1,1,1", "--degree", "2"],
    ],
)
def test_wps_check_rejects_non_threefolds(db_path, capsys, command):
    assert main(["wps", "check", *command, "--db", str(db_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "candidates are threefolds" in captured.err
    assert captured.out == ""


def test_link_solve_packaged_case(db_path, capsys):
    assert main(["link", "solve", "q9_4A.case", "--db", str(db_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "feasible qhat values: {5, 6, 7, 8}" in out


def test_link_solve_eliminated_case(db_path, capsys):
    assert main(["link", "solve", "q6_basket7.case", "--db", str(db_path)]) == (
        EXIT_OK
    )
    out = capsys.readouterr().out
    assert "none -- case eliminated" in out


def test_link_solve_missing_case_file(capsys):
    assert main(["link", "solve", "/nonexistent/foo.case"]) == EXIT_MISSING_INPUT
    capsys.readouterr()


def test_export_csv(db_path, tmp_path, capsys):
    out_file = tmp_path / "dump.csv"
    code = main(
        ["export", "--db", str(db_path), "--format", "csv", "--out", str(out_file)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    lines = out_file.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("id,")
    assert len(lines) == 1 + 472


def test_diff_reports_filter_effects(capsys):
    assert main(["diff", "--q", "6", "--flag", "enforce_vanishing"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "enforce_vanishing" in out
    assert "removes" in out and "adds" in out


@pytest.mark.parametrize("command", [
    ["enumerate", "--q", "6"],
    ["table", "--case", "q5"],
    ["facts"],
    ["link", "solve", "q9_4A.case"],
    ["diff", "--q", "5"],
])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_bad_jobs_is_usage_error(command, jobs, capsys):
    assert main(command + ["--jobs", jobs]) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err


@pytest.fixture(scope="module")
def q8_doc(tmp_path_factory):
    """A small stored database (index 8 only), as a parsed JSON document."""
    path = tmp_path_factory.mktemp("q8") / "q8.json"
    db = Database(DEFAULT_CONFIG, tuple(enumerate_candidates(8)), filter_set="default")
    save_database(db, path)
    return json.loads(path.read_text(encoding="utf-8"))


def _bad_input_exit(argv, capsys):
    code = main(argv)  # any exception escaping here fails the test
    err = capsys.readouterr().err
    assert "bad input" in err
    # the q8-only database lacks indices facts needs: a malformed file must
    # be refused for being malformed, before that
    assert "incomplete" not in err
    return code


ROW_FIELDS = ["q", "basket", "a3", "sigma", "minus_k3", "minus_k_c2", "dims", "genus", "id"]


@pytest.mark.parametrize("field", ROW_FIELDS)
def test_database_row_missing_field(q8_doc, field, tmp_path, capsys):
    doc = json.loads(json.dumps(q8_doc))
    del doc["candidates"][0][field]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _bad_input_exit(["facts", "--db", str(path)], capsys) == EXIT_MISSING_INPUT


@pytest.mark.parametrize("where, key, value", [
    ("row", "q", "eight"),
    ("row", "q", None),
    ("row", "basket", 5),
    ("row", "basket", [[2]]),
    ("row", "basket", [[8, 1]]),
    ("row", "a3", 5),
    ("row", "a3", "0"),
    ("row", "a3", "one"),
    ("row", "dims", ["x"]),
    ("row", "genus", "many"),
    ("doc", "candidates", 7),
    ("doc", "candidates", ["row"]),
    ("doc", "count", "all"),
    ("doc", "format_version", [1]),
    ("doc", "config", None),
    ("doc", "filter_set", ["default"]),
    ("config", "bm_inequality", "yes"),
    ("config", "bm_inequality", 1),
    ("config", "degree_cap", "100"),
    ("config", "degree_cap_exception", None),
    ("config", "index_set", [3, 4]),
    ("config", "enforce_vanishing", None),
])
def test_database_bad_value(q8_doc, where, key, value, tmp_path, capsys):
    doc = json.loads(json.dumps(q8_doc))
    target = {"row": doc["candidates"][0], "doc": doc, "config": doc["config"]}[where]
    target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _bad_input_exit(["facts", "--db", str(path)], capsys) == EXIT_MISSING_INPUT


def test_database_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"candidates": [\xff]}')
    assert _bad_input_exit(["facts", "--db", str(path)], capsys) == EXIT_MISSING_INPUT


def test_database_config_missing_field(q8_doc, tmp_path, capsys):
    for key in q8_doc["config"]:
        doc = json.loads(json.dumps(q8_doc))
        del doc["config"][key]
        path = tmp_path / f"bad-{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _bad_input_exit(["facts", "--db", str(path)], capsys) == EXIT_MISSING_INPUT


def test_database_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert _bad_input_exit(["facts", "--db", str(path)], capsys) == EXIT_MISSING_INPUT


def test_case_file_nested_too_deeply(tmp_path, capsys):
    case_file = tmp_path / "deep.case"
    case_file.write_text("[" * 100_000, encoding="utf-8")
    assert _bad_input_exit(["link", "solve", str(case_file)], capsys) == EXIT_MISSING_INPUT


def test_relation_nested_too_deeply(tmp_path, capsys):
    doc = _case_doc()
    lhs, _, rhs = doc["relations"][0].partition("=")
    doc["relations"][0] = f"{lhs}= {'(' * 3000}{rhs}{')' * 3000}"
    case_file = tmp_path / "deep.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    assert _bad_input_exit(["link", "solve", str(case_file)], capsys) == EXIT_MISSING_INPUT


def _case_doc():
    return json.loads(case_path("q9_4A.case").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path, value", [
    (("unknowns", 0, "max"), "ten"),
    (("unknowns", 0, "min"), [0]),
    (("unknowns", 0), "s1"),
    (("unknowns",), 5),
    (("q",), "nine"),
    (("source",), []),
    (("source", "basket"), 4),
    (("source", "a3"), "a twentieth"),
    (("alpha",), ["1/x"]),
    (("relations",), [7]),
    (("dim_constraints",), [["s1", 1]]),
    (("index_set",), ["all"]),
    (("threshold_floor",), "high"),
])
def test_case_file_bad_value(path, value, tmp_path, capsys):
    doc = _case_doc()
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    case_file = tmp_path / "bad.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    assert _bad_input_exit(["link", "solve", str(case_file)], capsys) == EXIT_MISSING_INPUT


@pytest.mark.parametrize("field", ["q", "source", "alpha", "unknowns", "relations"])
def test_case_file_missing_field(field, tmp_path, capsys):
    doc = _case_doc()
    del doc[field]
    case_file = tmp_path / "bad.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    assert _bad_input_exit(["link", "solve", str(case_file)], capsys) == EXIT_MISSING_INPUT


def test_parser_is_built_once_and_keeps_no_state(db_path, monkeypatch, capsys):
    sizes = []
    monkeypatch.setattr(enumeration, "Pool", _recording_pool(sizes))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    runs = [
        ["export", "--db", str(db_path), "--format", "json"],
        ["export", "--db", str(db_path)],
        ["enumerate", "--q", "8", "--jobs", "2", "--format", "csv"],
        ["enumerate", "--q", "8"],
        ["enumerate", "--q", "20"],
        ["diff", "--q", "8", "--flag", "nonnegativity", "--filter-set", "capped"],
        ["diff", "--q", "8", "--flag", "nonnegativity"],
        ["wps", "check", "--weights", "1,1,2,3", "--degree", "6", "--db", str(db_path)],
        ["wps", "check", "--weights", "1,1,2,3", "--db", str(db_path)],
    ]
    cli._build_parser.cache_clear()
    cached = []
    for argv in runs:
        cached.append((main(argv), capsys.readouterr()))
    assert cli._build_parser.cache_info().misses == 1
    # only the --jobs 2 run started a pool: the option did not stick
    assert sizes == [2]
    for argv, result in zip(runs, cached):
        cli._build_parser.cache_clear()
        assert (main(argv), capsys.readouterr()) == result
    assert sizes == [2, 2]
    valid = [argv for argv in runs if argv[-1] != "20"]
    reused = cli._build_parser()
    in_turn = [vars(reused.parse_args(argv)) for argv in valid]
    assert in_turn == [vars(cli._build_parser.__wrapped__().parse_args(argv)) for argv in valid]


def test_diff_enumerates_its_base_once(monkeypatch, capsys):
    per_flag = []
    for flag in FILTER_FLAGS:
        assert main(["diff", "--q", "5", "--flag", flag]) == EXIT_OK
        per_flag.append(capsys.readouterr().out)
    calls = []
    real = enumeration.enumerate_candidates

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "enumerate_candidates", counting)
    monkeypatch.setattr(cli, "enumerate_candidates", counting)
    assert main(["diff", "--q", "5"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(per_flag)
    assert len(calls) == 1 + len(FILTER_FLAGS)
    # --jobs 2: one pool per enumeration, the same output
    sizes = []
    monkeypatch.setattr(enumeration, "Pool", _recording_pool(sizes))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    assert main(["diff", "--q", "5", "--jobs", "2"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(per_flag)
    assert sizes == [2] * (1 + len(FILTER_FLAGS))


@pytest.fixture(scope="module")
def no_q5_paths(full_db, tmp_path_factory):
    """The full database without its index-5 rows, named and unnamed."""
    rows = tuple(c for c in full_db if c.q != 5)
    base = tmp_path_factory.mktemp("no_q5")
    paths = {}
    for name in ("default", None):
        paths[name] = base / f"{name}.json"
        save_database(Database(DEFAULT_CONFIG, rows, filter_set=name), paths[name])
    return paths


@pytest.mark.parametrize("command", [
    ["link", "solve", "q9_4A.case"],
    ["facts"],
    ["table", "--case", "q5"],
    ["wps", "check", "--weights", "1,1,1,2"],
])
def test_database_missing_an_index_is_refused(no_q5_paths, command, capsys):
    assert main(command + ["--db", str(no_q5_paths["default"])]) == EXIT_MISSING_INPUT
    err = capsys.readouterr().err
    assert "needs candidates of index 5" in err and "incomplete" in err


def test_database_missing_an_index_serves_the_others(no_q5_paths, db_path, capsys):
    for path in (no_q5_paths["default"], db_path):
        assert main(["table", "--case", "q6", "--db", str(path)]) == EXIT_OK
    first, second = capsys.readouterr().out.split("index 6 survey")[1:]
    assert first == second


def test_unnamed_database_is_served_with_a_warning(no_q5_paths, db_path, capsys):
    assert main(["link", "solve", "q9_4A.case", "--db", str(db_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    path = no_q5_paths[None]
    assert main(["link", "solve", "q9_4A.case", "--db", str(path)]) == EXIT_OK
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "was not checked" in err
