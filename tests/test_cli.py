import argparse
import errno
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qfano.cli import (
    EXIT_INTERNAL,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
import qfano
from qfano import cli, enumeration, links
from qfano.enumeration import (
    FILTER_FLAGS,
    INDEX_SET,
    Candidate,
    enumerate_candidates,
)
from qfano.riemann_roch import Basket
from qfano.store import Database, save_database

from test_enumeration import _recording_forks, _set_cpus, _workers, sort_key
from qfano.arith import Rational
from qfano.links import LinkSolution
from test_links import case_path, make_case_text, twins_case_text


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_USAGE, EXIT_MISSING_INPUT, EXIT_INTERNAL}) == 4
    assert EXIT_OK == 0


def test_invalid_index_is_usage_error(capsys):
    assert main(["diff", "--q", "20"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_enumerate_requires_scope(tmp_path, monkeypatch, capsys):
    # every database is the whole enumeration: --all is required, and there
    # is no --q; no such command line builds or writes anything
    builds = []
    monkeypatch.setattr(cli, "_build_database", lambda *args: builds.append(args))
    for scope in ([], ["--q", "6"], ["--all", "--q", "6"]):
        assert main(["enumerate", *scope, "--db", str(tmp_path / "db.json")]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "error: " in err
    assert builds == [] and list(tmp_path.iterdir()) == []


def test_missing_database_file(capsys):
    assert main(["table", "--case", "q5", "--db", "/nonexistent/db.json"]) == (
        EXIT_MISSING_INPUT
    )
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["facts", "--db", "{dir}"],
    ["table", "--case", "q5", "--db", "{dir}"],
    ["export", "--db", "{dir}"],
    ["wps", "check", "--weights", "1,1,2,3", "--db", "{dir}"],
    ["link", "solve", "q9_4A.case", "--db", "{dir}"],
    ["link", "solve", "{dir}", "--db", "{db}"],
    ["link", "solve", "{utf16}", "--db", "{db}"],
])
def test_unreadable_input_is_bad_input(argv, db_path, tmp_path, capsys):
    # a directory where a file belongs, or a case file that is not UTF-8
    utf16 = tmp_path / "utf16.case"
    utf16.write_bytes(b"\xff\xfe" + "[case]\n".encode("utf-16-le"))
    argv = [arg.format(dir=tmp_path, utf16=utf16, db=db_path) for arg in argv]
    assert main(argv) == EXIT_MISSING_INPUT  # any exception escaping fails the test
    err = capsys.readouterr().err
    assert err.startswith("qfano: bad input: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _recording_work(monkeypatch):
    """Replace the build and the load of a database with recorders of their calls."""
    work = []
    monkeypatch.setattr(cli, "_build_database", lambda *args: work.append(args))
    monkeypatch.setattr(cli, "load_database", lambda *args: work.append(args))
    return work


@pytest.mark.parametrize("option", ["--db"])  # enumerate --db is the one output path
def test_unwritable_output_is_usage_error(option, tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.json"
    assert main(["enumerate", "--all", option, str(target)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"cannot write output: {target}" in err
    assert "not found" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("parent", ["missing", "file"])
@pytest.mark.parametrize("option", ["--db"])
def test_unwritable_output_is_refused_before_enumerating(
    option, parent, tmp_path, monkeypatch, capsys
):
    # a directory that is missing, or a file where the directory belongs:
    # refused before the database is built
    (tmp_path / "file").write_text("", encoding="utf-8")
    target = tmp_path / parent / "x.json"
    work = _recording_work(monkeypatch)
    assert main(["enumerate", "--all", option, str(target)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"qfano: cannot write output: {target}\n"
    assert captured.out == ""
    assert work == []


@pytest.mark.parametrize("option", ["--db"])
def test_dangling_link_into_a_missing_directory_is_refused_before_any_work(
    option, tmp_path, monkeypatch, capsys
):
    # the link's own directory exists, its target's does not: the database
    # would be written through the link, so the target's directory decides
    link = tmp_path / "dangling.json"
    link.symlink_to(tmp_path / "missing" / "x.json")
    work = _recording_work(monkeypatch)
    assert main(["enumerate", "--all", option, str(link)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"qfano: cannot write output: {link}\n"
    assert captured.out == ""
    assert work == []
    assert link.is_symlink() and not link.exists()


@pytest.mark.parametrize("spelling", ["same", "relative", "symlink", "hard link", "not yet"])
@pytest.mark.parametrize("command", [
    ["export"],
    ["export", "--format", "json"],
    ["table", "--case", "q5"],
    ["export", "--format", "table"],
])
def test_out_naming_the_db_file_is_refused(
    command, spelling, db_path, tmp_path, monkeypatch, capsys
):
    # a rendering goes to stdout: --out is refused by the parser before the
    # database is read, however it names the --db file, and no file is written
    db = tmp_path / "db.json"
    if spelling != "not yet":
        db.write_bytes(db_path.read_bytes())
    out = tmp_path / "other.json"
    if spelling == "symlink":
        out.symlink_to(db)
    elif spelling == "hard link":
        os.link(db, out)
    else:
        out = "./db.json" if spelling == "relative" else db
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    work = _recording_work(monkeypatch)
    assert main([*command, "--db", str(db), "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: --out {out}\n")
    assert work == []
    assert sorted(tmp_path.iterdir()) == before
    if spelling == "not yet":
        assert not db.exists()
    else:
        assert db.read_bytes() == db_path.read_bytes()


def test_output_path_that_is_a_directory_is_usage_error(tmp_path, monkeypatch, capsys):
    # a directory cannot be written as a file: refused before the database is
    # built, with nothing on stdout
    work = _recording_work(monkeypatch)
    assert main(["enumerate", "--all", "--db", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"qfano: cannot write output: {tmp_path}\n")
    assert work == []


@pytest.mark.parametrize("argv, code, message", [
    (["facts", "--db", ""], EXIT_MISSING_INPUT, "input not found: ''"),
    (["table", "--case", "q3", "--db", ""], EXIT_MISSING_INPUT, "input not found: ''"),
    (["wps", "check", "--weights", "1,1,1,2", "--db", ""], EXIT_MISSING_INPUT,
     "input not found: ''"),
    (["link", "solve", "q9_4A.case", "--db", ""], EXIT_MISSING_INPUT,
     "input not found: ''"),
    (["export", "--db", ""], EXIT_MISSING_INPUT, "input not found: ''"),
    (["enumerate", "--all", "--db", ""], EXIT_USAGE, "cannot write output: ''"),
])
def test_empty_path_is_a_path(argv, code, message, db_path, monkeypatch, capsys):
    # an empty --db is refused like any other path that names no file,
    # before anything is enumerated
    builds = []
    monkeypatch.setattr(cli, "_build_database", lambda *args: builds.append(args))
    argv = [arg.format(db=db_path) for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(f"qfano: {message}") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert builds == []


def test_enumerate_single_index_table(db_path, full_db, capsys):
    # one index is inspected in the export of the whole database, whose
    # rows give their index
    assert main(["export", "--db", str(db_path), "--format", "csv"]) == EXIT_OK
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split(",")[:2] == ["id", "q"]
    q6 = [row.split(",")[0] for row in rows if row.split(",")[1] == "6"]
    assert q6 == [c.id for c in full_db if c.q == 6] and "q6-7.3-a2.7" in q6


def test_enumerate_writes_database_with_summary(full_db, db_path, tmp_path, monkeypatch, capsys):
    # the build is the session's: the file is the stored database, and the
    # summary line, with every index, is all enumerate prints
    builds = []

    def build(*args):
        builds.append(args)
        return Database("default", tuple(full_db))

    monkeypatch.setattr(cli, "_build_database", build)
    db_file = tmp_path / "db.json"
    assert main(["enumerate", "--all", "--db", str(db_file)]) == EXIT_OK
    assert builds == [("default", 1)]
    assert db_file.read_bytes() == db_path.read_bytes()
    per_q = ", ".join(f"q={q}: {sum(c.q == q for c in full_db)}" for q in INDEX_SET)
    assert capsys.readouterr().out == f"472 candidates ({per_q}) -> {db_file}\n"


@pytest.mark.parametrize("options", [[], ["--format", "csv"], ["--out", "{out}"]])
def test_enumerate_writes_only_the_database(options, tmp_path, monkeypatch, capsys):
    # without --db, or with a rendering option, enumerate is a usage error
    # before anything is built; rendering is export's
    builds = []
    monkeypatch.setattr(cli, "_build_database", lambda *args: builds.append(args))
    db = [] if not options else ["--db", str(tmp_path / "db.json")]
    argv = ["enumerate", "--all", *db, *options]
    assert main([arg.format(out=tmp_path / "out") for arg in argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "error: " in err
    assert builds == [] and list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def capped_path(capped_db, tmp_path_factory):
    """The database of the capped filter set, saved once."""
    path = tmp_path_factory.mktemp("capped") / "capped.json"
    save_database(Database("capped", tuple(capped_db)), path)
    return path


def test_export_json_gives_back_the_stored_file(db_path, capped_path, capsys):
    capsys.readouterr()
    for path in (db_path, capped_path):
        assert main(["export", "--db", str(path), "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()


@pytest.fixture(scope="module")
def full_table(db_path):
    """The cells of each row of ``export --format table`` of the whole database."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["export", "--db", str(db_path), "--format", "table"]) == EXIT_OK
    return [line.split("  ") for line in out.getvalue().splitlines()]


def _cells(table):
    return [[cell.strip() for cell in row if cell.strip()] for row in table]


@pytest.mark.parametrize("q", INDEX_SET)
def test_one_index_export_is_that_index_of_the_full_table(q, full_table):
    # the one-index enumeration that diff runs, rendered alone, is cell for
    # cell the rows of that index in the export of the whole database
    alone = cli.render_candidate_table(enumerate_candidates(q))
    in_full = [row for row in _cells(full_table[1:]) if row[1] == str(q)]
    assert _cells(line.split("  ") for line in alone.splitlines()) == [
        _cells(full_table[:1])[0], *in_full
    ]


def test_enumerate_all_forks_one_child(monkeypatch, tmp_path, capsys):
    calls, scanned = [], []
    real = enumeration._scan_share

    def counting(share, config):
        scanned.append(tuple(share))
        return real(share, config)

    monkeypatch.setattr(enumeration, "_scan_share", counting)
    monkeypatch.setattr(enumeration, "_scan_shares", _recording_forks(calls))
    _set_cpus(monkeypatch, 2)
    db = tmp_path / "db.json"
    assert main(["enumerate", "--all", "--jobs", "2", "--db", str(db)]) == EXIT_OK
    assert "472 candidates" in capsys.readouterr().out
    # this process scans q = 3..8, one child the rest; every index once
    assert calls == [([INDEX_SET[:6], INDEX_SET[6:]], [1])]
    assert scanned == [INDEX_SET[:6], INDEX_SET[6:]]
    assert sorted(q for share in scanned for q in share) == sorted(INDEX_SET)


def _fresh_interpreter(
    script: str, *args: str, stdout=subprocess.PIPE, **options
) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports qfano from this checkout;
    ``options`` go to :func:`subprocess.run`."""
    src = str(Path(qfano.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60, **options,
    )


def test_parallel_build_does_not_import_multiprocessing(tmp_path):
    # each command imports only what it runs: links and wps on demand, the
    # fork-only modules only on a forked scan, and no dataclasses anywhere
    script = (
        "import json, sys\n"
        "def absent(*names):\n"
        "    return [name for name in names if name in sys.modules]\n"
        "from qfano.cli import main\n"
        "seen = {'import': absent('qfano.links', 'qfano.wps', 'dataclasses', 'pickle',"
        " 'signal', 'traceback', 'multiprocessing')}\n"
        "db = sys.argv[1]\n"
        "seen['enumerate'] = main(['enumerate', '--all', '--jobs', '2', '--db', db]), "
        "absent('multiprocessing')\n"
        "seen['facts'] = main(['facts', '--db', db]), absent('qfano.links', 'qfano.wps')\n"
        "seen['link'] = main(['link', 'solve', 'q9_4A.case', '--db', db]), "
        "absent('dataclasses')\n"
        "print(json.dumps(seen))\n"
    )
    result = _fresh_interpreter(script, str(tmp_path / "db.json"))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "import": [], "enumerate": [0, []], "facts": [0, []], "link": [0, []],
    }


def test_bad_case_file_on_a_fresh_interpreter_is_bad_input(db_path, tmp_path):
    # the error class of a module imported on demand is still caught on its
    # first use: exit 3 with the one-line message, no traceback
    case_file = tmp_path / "broken.case"
    case_file.write_text("{not json", encoding="utf-8")
    script = (
        "import sys\n"
        "from qfano.cli import main\n"
        "sys.exit(main(['link', 'solve', sys.argv[1], '--db', sys.argv[2]]))\n"
    )
    result = _fresh_interpreter(script, str(case_file), str(db_path))
    assert result.returncode == EXIT_MISSING_INPUT
    assert result.stdout == ""
    assert result.stderr.startswith("qfano: bad input: case file is not valid JSON")
    assert result.stderr.count("\n") == 1


MAIN_SCRIPT = "import sys\nfrom qfano.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@pytest.mark.parametrize("command", [["export", "--format", "table"], ["facts"]])
def test_stdout_with_no_reader_is_a_usage_error(db_path, command):
    # stdout is a pipe whose read end is closed before the tool starts, so
    # export's one large write fails, and so does the flush of the few lines
    # facts leaves buffered: exit 2 with one line, no traceback, and nothing
    # reported again at exit
    read, write = os.pipe()
    os.close(read)
    try:
        result = _fresh_interpreter(MAIN_SCRIPT, *command, "--db", str(db_path), stdout=write)
    finally:
        os.close(write)
    assert result.returncode == EXIT_USAGE
    assert result.stderr == "qfano: cannot write output: stdout\n"


@pytest.mark.parametrize("command", [["export", "--format", "table"], ["facts"]])
def test_stdout_on_a_full_device_is_a_usage_error(db_path, command):
    # every write to /dev/full fails with ENOSPC: export's one large write
    # and the flush of facts' few buffered lines end like a reader gone away,
    # with one line, no traceback and nothing reported again at exit
    with open("/dev/full", "w") as full:
        result = _fresh_interpreter(MAIN_SCRIPT, *command, "--db", str(db_path), stdout=full)
    assert result.returncode == EXIT_USAGE
    assert result.stderr == "qfano: cannot write output: stdout\n"


@pytest.mark.parametrize("command", [["--help"], ["enumerate", "--help"]])
def test_help_on_a_full_device_is_a_usage_error(command, capsys):
    # argparse drops a failed write of the help text, so the help is written
    # with the rest of stdout, after parsing: exit 2 with one line
    assert main(command) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: qfano")
    with open("/dev/full", "w") as full:
        result = _fresh_interpreter(MAIN_SCRIPT, *command, stdout=full)
    assert result.returncode == EXIT_USAGE
    assert result.stderr == "qfano: cannot write output: stdout\n"


@pytest.mark.parametrize(
    "command", [["facts", "--db", "{db}"], ["enumerate", "--all", "--db", "{new}"]]
)
def test_closed_stdout_is_refused_before_any_work(db_path, tmp_path, command):
    # started with fd 1 closed, Python sets sys.stdout to None and print
    # drops every line: the tool refuses at once, and writes no database
    new = tmp_path / "new.json"
    argv = [arg.format(db=db_path, new=new) for arg in command]
    result = _fresh_interpreter(MAIN_SCRIPT, *argv, stdout=None, preexec_fn=lambda: os.close(1))
    assert result.returncode == EXIT_USAGE
    assert result.stderr == "qfano: cannot write output: stdout\n"
    assert not new.exists()


def test_other_os_errors_are_not_reported_as_stdout(db_path, monkeypatch, capsys):
    # only a failed write or flush of stdout is a stdout error; any other
    # OSError propagates as it is, and stdout is given back either way
    def unreadable(path):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    stdout = sys.stdout
    monkeypatch.setattr(cli, "load_database", unreadable)
    with pytest.raises(OSError) as raised:
        main(["facts", "--db", str(db_path)])
    assert raised.value.errno == errno.EIO
    assert sys.stdout is stdout
    assert capsys.readouterr().err == ""


def test_table_from_stored_database(db_path, capsys):
    assert main(["table", "--case", "q5", "--db", str(db_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "index 5 survey" in out
    assert "(2)" in out  # a row shows the basket's indices, not its orientations
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


@pytest.mark.parametrize("weights, verdict", [
    ("1,1,1,3", "candidate match: none (no enumerated candidate has this index and degree)"),
    ("1,1,3,3", "candidate match: none (index and degree agree, plurigenera do not)"),
])
def test_wps_check_reports_no_match(db_path, capsys, weights, verdict):
    assert main(["wps", "check", "--weights", weights, "--db", str(db_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == verdict


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


def test_wps_check_rejects_bad_weights(db_path, capsys):
    db = ["--db", str(db_path)]
    assert main(["wps", "check", "--weights", "1,zero,3", *db]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("qfano wps check: invalid literal")
    assert main(["wps", "check", "--weights", "1,2,3,4", "--degree", "99", *db]) == (
        EXIT_USAGE
    )
    assert capsys.readouterr().err.startswith("qfano wps check: degree 99 leaves")


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


@pytest.mark.parametrize("command, fault", [
    # P(2,2,2,2) is P^3, with q = 4 and -K^3 = 64, not q = 8 and -K^3 = 32
    (["--weights", "2,2,2,2"], "P(2,2,2,2) is not well-formed: gcd(2, 2, 2) = 2"),
    (["--weights", "1,3,3,3"], "P(1,3,3,3) is not well-formed: gcd(3, 3, 3) = 3"),
    (["--weights", "1,1,2,2,2", "--degree", "3"],
     "X3 in P(1,1,2,2,2) is not well-formed: gcd(2, 2, 2) does not divide 3"),
])
def test_wps_check_rejects_models_that_are_not_well_formed(db_path, capsys, command, fault):
    # index and degree are sum(w) - d and d/prod(w) only on a well-formed model
    assert main(["wps", "check", *command, "--db", str(db_path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"qfano wps check: {fault}\n")


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


def test_link_solve_exits_4_when_the_audit_fails(db_path, tmp_path, monkeypatch, capsys):
    case_file = tmp_path / "floored.case"
    case_file.write_text(make_case_text(dim_constraints=[["s1", 1, 0]]), encoding="utf-8")
    # the relation holds, but dim|0*Theta| = 0 at qhat = 3 is below dim|A| = 1
    below_floor = LinkSolution(3, (("s1", 0), ("e", 3)), Rational(1))
    monkeypatch.setattr(links, "solve", lambda case, source, lookup: [below_floor])
    assert main(["link", "solve", str(case_file), "--db", str(db_path)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out.endswith("solutions: 1\n  qhat=3 alpha=1 s1=0 e=3\n")
    assert captured.err == "audit failed for qhat=3 alpha=1 s1=0 e=3\n"


def test_link_solve_refuses_a_bare_source_with_twins(db_path, tmp_path, capsys):
    case_file = tmp_path / "twins.case"
    case_file.write_text(twins_case_text([5, 15]), encoding="utf-8")
    assert main(["link", "solve", str(case_file), "--db", str(db_path)]) == EXIT_MISSING_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qfano: bad input: ambiguous source candidate reference")
    # the decorated form names one twin, and the case is solved from it
    case_file.write_text(twins_case_text([[5, 1], [15, 2]]), encoding="utf-8")
    assert main(["link", "solve", str(case_file), "--db", str(db_path)]) == EXIT_OK
    solved = capsys.readouterr().out
    assert "solutions:" in solved
    # 15:13 is 15:2 spelled with the mirror multiplier
    case_file.write_text(twins_case_text([[5, 1], [15, 13]]), encoding="utf-8")
    assert main(["link", "solve", str(case_file), "--db", str(db_path)]) == EXIT_OK
    assert capsys.readouterr().out == solved


@pytest.mark.parametrize("name", ["q9_4A", "q6_basket7", "q8_basket_3_9"])
def test_link_solve_looks_up_each_key_once(db_path, monkeypatch, capsys, name):
    # solve and audit share one table: the audit of each solution reads the
    # values the search already looked up
    keys = []
    lookup = links.dims_lookup

    def counting(db, *key):
        keys.append(key)
        return lookup(db, *key)

    monkeypatch.setattr(links, "dims_lookup", counting)
    assert main(["link", "solve", f"{name}.case", "--db", str(db_path)]) == EXIT_OK
    assert keys and len(keys) == len(set(keys))
    capsys.readouterr()


def test_link_solve_resolves_the_source_once(db_path, monkeypatch, capsys):
    # the search and the audit of each of the 24 solutions share one source
    sources = []
    resolve = links.SourceRef.resolve

    def counting(ref, db):
        sources.append(resolve(ref, db))
        return sources[-1]

    monkeypatch.setattr(links.SourceRef, "resolve", counting)
    assert main(["link", "solve", "q9_4A.case", "--db", str(db_path)]) == EXIT_OK
    assert "solutions: 24\n" in capsys.readouterr().out
    assert [c.id for c in sources] == ["q9-2.1_4.1_5.2-a1.20"]


def test_link_solve_past_the_search_budget_is_bad_input(db_path, tmp_path, capsys):
    # every value of an unknown no relation names is a solution: the solve
    # stops at its budget with one line on stderr, and prints no solution
    doc = _case_doc()
    doc["unknowns"].append({"name": "z", "min": 0, "max": 10**9})
    case_file = tmp_path / "unbounded.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["link", "solve", str(case_file), "--db", str(db_path)]) == EXIT_MISSING_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qfano: bad input: case ") and err.count("\n") == 1
    assert f"tries more than {links.MAX_SEARCH_NODES} values" in err


def test_link_solve_missing_case_file(db_path, tmp_path, monkeypatch, capsys):
    # a path with a directory part names that file; only a bare name falls
    # back to the shipped case of that name
    monkeypatch.chdir(tmp_path)
    for name in ("/nonexistent/foo.case", "/no/such/dir/q9_4A.case", "./q9_4A.case"):
        assert main(["link", "solve", name, "--db", str(db_path)]) == EXIT_MISSING_INPUT
        assert capsys.readouterr() == ("", f"qfano: input not found: {name!r}\n")


@pytest.mark.parametrize("name", ["", " "])
def test_link_solve_blank_case_name(name, db_path, capsys):
    # the message still names the input when it is empty or blank
    assert main(["link", "solve", name, "--db", str(db_path)]) == EXIT_MISSING_INPUT
    assert capsys.readouterr().err == f"qfano: input not found: {name!r}\n"


def test_export_csv(db_path, capsys):
    assert main(["export", "--db", str(db_path), "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("id,")
    assert len(lines) == 1 + 472


def test_diff_reports_filter_effects(capsys):
    assert main(["diff", "--q", "6", "--flag", "enforce_vanishing"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "enforce_vanishing" in out
    assert "removes" in out and "adds" in out


def test_diff_lists_twenty_changes_and_counts_the_rest(capsys):
    assert main(["diff", "--q", "3", "--flag", "enforce_vanishing"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "enforce_vanishing: True -> False: removes 0, adds 28"
    assert len(lines) == 22
    assert all(line.startswith("  + q3-") for line in lines[1:21])
    assert lines[-1] == "  + ... 8 more"


@pytest.mark.parametrize("command", [["enumerate", "--all"]])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_bad_jobs_is_usage_error(command, jobs, capsys):
    assert main(command + ["--jobs", jobs]) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err


def test_diff_has_no_jobs_option(db_path, monkeypatch, capsys):
    # diff runs on one index, and one index never forks; a read builds nothing
    builds = []
    monkeypatch.setattr(cli, "_build_database", lambda *args: builds.append(args))
    db = ["--db", str(db_path)]
    for command in (["diff", "--q", "5"], ["table", "--case", "q5", *db], ["facts", *db],
                    ["wps", "check", "--weights", "1,1,1,2", *db],
                    ["link", "solve", "q9_4A.case", *db], ["export", *db]):
        assert main(command + ["--jobs", "2"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: unrecognized arguments: --jobs 2\n")
    assert builds == []


@pytest.mark.parametrize("command", [
    ["table", "--case", "q5"],
    ["facts"],
    ["wps", "check", "--weights", "1,1,1,2"],
    ["link", "solve", "q9_4A.case"],
    ["export"],
])
def test_read_without_a_database_is_a_usage_error(command, monkeypatch, capsys):
    # a read takes the stored database enumerate --db writes, and builds none
    builds, loads = [], []
    monkeypatch.setattr(cli, "_build_database", lambda *args: builds.append(args))
    monkeypatch.setattr(cli, "load_database", lambda path: loads.append(path))
    assert main(command) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: the following arguments are required: --db\n")
    assert builds == [] and loads == []


#: Every command's options, each mapped to whether it is required (a
#: positional by its name, a mutually exclusive group as "A | B").
PARSER_INVENTORY = {
    "enumerate": {"--all": True, "--filter-set": False, "--jobs": False, "--db": True},
    "table": {"--db": True, "--case": True},
    "wps check": {"--db": True, "--weights": True, "--degree": False},
    "link solve": {"--db": True, "case": True},
    "facts": {"--db": True},
    "export": {"--db": True, "--format": False},
    "diff": {"--q": True, "--flag": False, "--filter-set": False},
}


def _inventory(parser, path=()):
    """``{command: {option: required}}`` for every command below ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            found = {}
            for name, sub in action.choices.items():
                found.update(_inventory(sub, (*path, name)))
            return found
    options = {" | ".join(a.option_strings[0] for a in group._group_actions): group.required
               for group in parser._mutually_exclusive_groups}
    options.update((a.option_strings[0] if a.option_strings else a.dest, a.required)
                   for a in parser._actions if not isinstance(a, argparse._HelpAction))
    return {" ".join(path): options}


def test_parser_inventory():
    # a new option, or one that becomes required or optional, is a test edit;
    # --jobs is enumerate's alone, every command but diff requires --db, and
    # no command takes an output path but enumerate's --db
    assert _inventory(cli._build_parser()) == PARSER_INVENTORY


#: The arguments of every ``$ qfano ...`` example line in README.md.
README_COMMANDS = [
    line.removeprefix("$ qfano ")
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    if line.startswith("$ qfano ")
]


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_examples_parse(command, capsys):
    try:
        cli._build_parser().parse_args(shlex.split(command))
    except SystemExit:
        pytest.fail(f"README example does not parse: qfano {command}\n{capsys.readouterr().err}")


def test_readme_has_examples():
    assert len(README_COMMANDS) >= 8


@pytest.fixture(scope="module")
def q8_doc(tmp_path_factory):
    """A small stored database (index 8 only), as a parsed JSON document."""
    path = tmp_path_factory.mktemp("q8") / "q8.json"
    db = Database("default", tuple(enumerate_candidates(8)))
    save_database(db, path)
    return json.loads(path.read_text(encoding="utf-8"))


def _bad_input_exit(argv, capsys):
    code = main(argv)  # any exception escaping here fails the test
    err = capsys.readouterr().err
    assert "bad input" in err
    # the q8-only database is incomplete: a malformed file must be refused
    # for being malformed, before that
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


def test_database_header_keys_reordered(q8_doc, tmp_path, capsys):
    # every value is the one the tool writes, but not in the order it writes them
    doc = dict(reversed(list(q8_doc.items())))
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


def test_case_file_nested_too_deeply(db_path, tmp_path, capsys):
    case_file = tmp_path / "deep.case"
    case_file.write_text("[" * 100_000, encoding="utf-8")
    argv = ["link", "solve", str(case_file), "--db", str(db_path)]
    assert _bad_input_exit(argv, capsys) == EXIT_MISSING_INPUT


def test_relation_nested_too_deeply(db_path, tmp_path, capsys):
    doc = _case_doc()
    lhs, _, rhs = doc["relations"][0].partition("=")
    doc["relations"][0] = f"{lhs}= {'(' * 3000}{rhs}{')' * 3000}"
    case_file = tmp_path / "deep.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["link", "solve", str(case_file), "--db", str(db_path)]
    assert _bad_input_exit(argv, capsys) == EXIT_MISSING_INPUT


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
def test_case_file_bad_value(path, value, db_path, tmp_path, capsys):
    doc = _case_doc()
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    case_file = tmp_path / "bad.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["link", "solve", str(case_file), "--db", str(db_path)]
    assert _bad_input_exit(argv, capsys) == EXIT_MISSING_INPUT


@pytest.mark.parametrize("index_set", [[2, 12], [20], [3, 12]])
def test_case_index_outside_index_set_is_refused(index_set, db_path, tmp_path, capsys):
    # no candidate is enumerated there, so "case eliminated" would be vacuous
    doc = _case_doc()
    doc["index_set"] = index_set
    case_file = tmp_path / "outside.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["link", "solve", str(case_file), "--db", str(db_path)]) == EXIT_MISSING_INPUT
    captured = capsys.readouterr()
    assert "bad input: index_set entries" in captured.err
    assert captured.out == ""


def test_case_with_an_empty_index_set_is_refused(db_path, tmp_path, capsys):
    # the shipped q9_4A case searched at no target index would print
    # "case eliminated" and exit 0
    doc = _case_doc()
    doc["index_set"] = []
    case_file = tmp_path / "empty.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["link", "solve", str(case_file), "--db", str(db_path)]) == EXIT_MISSING_INPUT
    assert capsys.readouterr() == ("", "qfano: bad input: index_set is empty\n")


@pytest.mark.parametrize("overrides", [
    {"index_set": [5, 5]},
    {"alpha": ["1/2", "2/4"], "index_set": [5]},
])
def test_case_repeated_branch_is_refused(overrides, db_path, tmp_path, capsys):
    # each solution of a repeated branch would be printed twice
    doc = _case_doc()
    doc.update(overrides)
    case_file = tmp_path / "repeated.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["link", "solve", str(case_file), "--db", str(db_path)]) == EXIT_MISSING_INPUT
    captured = capsys.readouterr()
    assert "bad input: " in captured.err and "repeat" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field", ["q", "source", "alpha", "unknowns", "relations"])
def test_case_file_missing_field(field, db_path, tmp_path, capsys):
    doc = _case_doc()
    del doc[field]
    case_file = tmp_path / "bad.case"
    case_file.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["link", "solve", str(case_file), "--db", str(db_path)]
    assert _bad_input_exit(argv, capsys) == EXIT_MISSING_INPUT


def test_parser_is_built_once_and_keeps_no_state(db_path, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(enumeration, "_scan_shares", _recording_forks(calls))
    _set_cpus(monkeypatch, 2)
    runs = [
        ["export", "--db", str(db_path), "--format", "json"],
        ["export", "--db", str(db_path)],
        ["enumerate", "--all", "--jobs", "2", "--db", str(tmp_path / "db2.json")],
        ["enumerate", "--all", "--db", str(tmp_path / "db1.json")],
        ["diff", "--q", "20"],
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
    # only the --jobs 2 run forked: the option did not stick
    assert _workers(calls) == [2]
    for argv, result in zip(runs, cached):
        cli._build_parser.cache_clear()
        assert (main(argv), capsys.readouterr()) == result
    assert _workers(calls) == [2, 2]
    valid = [argv for argv in runs if "20" not in argv]
    reused = cli._build_parser()
    in_turn = [vars(reused.parse_args(argv)) for argv in valid]
    assert in_turn == [vars(cli._build_parser.__wrapped__().parse_args(argv)) for argv in valid]


def test_diff_walks_the_baskets_once_per_flag(monkeypatch, capsys):
    calls = []
    real = enumeration.enumerate_baskets

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "enumerate_baskets", counting)
    # each flip walks once, but the uncapped bm_inequality flip, which
    # cannot change anything there, walks none
    per_flag, walks = [], []
    for flag in FILTER_FLAGS:
        calls.clear()
        assert main(["diff", "--q", "5", "--flag", flag]) == EXIT_OK
        per_flag.append(capsys.readouterr().out)
        walks.append(len(calls))
    assert FILTER_FLAGS == (
        "degree_cap_enforced", "enforce_vanishing", "bm_inequality", "nonnegativity"
    )
    assert walks == [1, 1, 0, 1]
    calls.clear()
    assert main(["diff", "--q", "5"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(per_flag)
    assert len(calls) == 3
    # under the cap the flag acts, and its flip walks once
    calls.clear()
    argv = ["diff", "--q", "5", "--flag", "bm_inequality", "--filter-set", "capped"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("bm_inequality: True -> False: removes 0, adds 66")
    assert len(calls) == 1
    # one index: every enumeration runs in this process, with no fork
    forks = []
    monkeypatch.setattr(enumeration, "_scan_shares", _recording_forks(forks))
    _set_cpus(monkeypatch, 2)
    assert main(["diff", "--q", "5"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(per_flag)
    assert forks == []


def _null_the_name(path, to):
    """Copy the saved database at ``path`` to ``to`` with ``"filter_set": null``."""
    text = path.read_text(encoding="utf-8")
    to.write_text(text.replace('"filter_set": "default"', '"filter_set": null', 1), encoding="utf-8")
    return to


@pytest.fixture(scope="module")
def no_q5_paths(full_db, tmp_path_factory):
    """The full database without its index-5 rows, and that file with its name nulled."""
    base = tmp_path_factory.mktemp("no_q5")
    paths = {"default": base / "default.json"}
    save_database(Database("default", tuple(c for c in full_db if c.q != 5)), paths["default"])
    paths[None] = _null_the_name(paths["default"], base / "unnamed.json")
    return paths


@pytest.fixture(scope="module")
def incomplete_paths(no_q5_paths, capped_db, tmp_path_factory):
    """Databases the load refuses as incomplete, by the message it gives:
    the default set without index 5, the capped set without index 19, and
    the empty database."""
    base = tmp_path_factory.mktemp("incomplete")
    paths = {
        no_q5_paths["default"]: "this 'default' database has no rows at q = 5: it is incomplete",
        base / "capped.json": "this 'capped' database has no rows at q = 19: it is incomplete",
        base / "empty.json": "this 'default' database has no rows at q = "
                             f"{', '.join(map(str, INDEX_SET))}: it is incomplete",
    }
    save_database(Database("capped", tuple(c for c in capped_db if c.q != 19)), base / "capped.json")
    save_database(Database("default", ()), base / "empty.json")
    return paths


@pytest.mark.parametrize("command", [
    ["link", "solve", "q9_4A.case"],
    ["facts"],
    ["table", "--case", "q5"],
    ["wps", "check", "--weights", "1,1,1,2"],
    ["export"],
])
def test_database_missing_an_index_is_refused(incomplete_paths, command, capsys):
    # the load refuses it, so every read does, export included, whatever
    # indices the command itself would read
    for path, message in incomplete_paths.items():
        assert main(command + ["--db", str(path)]) == EXIT_MISSING_INPUT
        assert capsys.readouterr() == ("", f"qfano: bad input: {message}\n")


#: A row of the full database, and a triple that is integral at k = 1..8 with
#: genus 30, above the true q=8 maximum of 28, but is not a candidate.
DROPPED_ROW = "q8-3.1_9.4-a1.9"
FORGED = (8, Basket.from_pairs([(3, 1), (3, 1), (11, 5)]), Rational(4, 33))


@pytest.fixture(scope="module")
def edited_paths(full_db, tmp_path_factory):
    """The full database with one row dropped, and with one forged row inserted.

    Each is written by the tool itself, so it is in canonical order and its
    ``count`` is right: only the set of rows at index 8 is wrong.
    """
    forged = Candidate.from_parts(*FORGED)
    assert forged.genus == 30 and forged.id not in {c.id for c in full_db}
    edits = {
        "dropped": [c for c in full_db if c.id != DROPPED_ROW],
        "forged": sorted([*full_db, forged], key=sort_key),
    }
    assert len(edits["dropped"]) == len(full_db) - 1
    base = tmp_path_factory.mktemp("edited")
    paths = {}
    for name, rows in edits.items():
        paths[name] = base / f"{name}.json"
        save_database(Database("default", tuple(rows)), paths[name])
    return paths


@pytest.mark.parametrize("edit", ["dropped", "forged"])
@pytest.mark.parametrize("command", [
    ["link", "solve", "q9_4A.case"],
    ["facts"],
    ["table", "--case", "q8"],
    ["wps", "check", "--weights", "1,1,1,2"],
    ["export"],
])
def test_database_with_an_edited_index_is_refused(edited_paths, edit, command, capsys):
    # a dropped row turns q9_4A's 24 solutions into 18 and drops qhat = 8
    # from the feasible set; a forged row adds an eighth q8 survey row
    assert main(command + ["--db", str(edited_paths[edit])]) == EXIT_MISSING_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert "the rows at index 8 are not the 'default' enumeration" in err


@pytest.mark.parametrize("command", [
    ["link", "solve", "q9_4A.case"],
    ["facts"],
    ["table", "--case", "q8"],
    ["wps", "check", "--weights", "1,1,1,2"],
    ["export"],
])
def test_unnamed_database_is_refused(no_q5_paths, edited_paths, tmp_path, command, capsys):
    # a null name would skip the completeness checks: with the dropped row,
    # link solve would print {5, 6, 7} for q9_4A, whose feasible set is {5, 6, 7, 8}
    dropped = _null_the_name(edited_paths["dropped"], tmp_path / "dropped.json")
    for path in (no_q5_paths[None], dropped):
        assert main(command + ["--db", str(path)]) == EXIT_MISSING_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qfano: bad input: unknown filter set None\n"
