"""Tests for the conference-demo CLI shell."""

import io
import os
import re

import numpy as np
import pytest

from repro.cli import (
    BOOTSTRAP_QUERIES,
    SCRIPTS,
    SERVE_SWITCHES,
    SERVE_VALUE_FLAGS,
    DemoShell,
    _check_flags,
    load_dataset,
    main,
    serve_main,
)
from repro.db import Database
from repro.errors import ReproError
from repro.frontend import Brush


@pytest.fixture
def shell(donations_db):
    out = io.StringIO()
    shell = DemoShell(donations_db, out=out)
    return shell, out


QUERY = (
    "sql SELECT day, sum(amount) AS total FROM donations GROUP BY day "
    "ORDER BY day"
)


class TestShellCommands:
    def test_sql_and_show(self, shell):
        sh, out = shell
        sh.run_line(QUERY)
        sh.run_line("show")
        text = out.getvalue()
        assert "rows" in text
        assert "x: day" in text

    def test_full_loop_via_commands(self, shell):
        sh, out = shell
        sh.run([
            QUERY,
            "select y< 0",
            "zoom",
            "inputs y< 0",
            "forms",
            "metric too_low 0",
            "debug",
            "apply 1",
            "query",
        ], echo=False)
        text = out.getvalue()
        assert "suspicious results" in text
        assert "Ranked predicates" in text
        assert "applied: NOT" in text
        assert "NOT" in sh.session.current_sql()

    def test_undo_redo(self, shell):
        sh, out = shell
        sh.run([
            QUERY, "select y< 0", "zoom", "inputs y< 0",
            "metric too_low 0", "debug", "apply 1", "undo", "redo",
        ], echo=False)
        assert len(sh.session.applied_predicates) == 1
        assert "undone" in out.getvalue()
        assert "redone" in out.getvalue()

    def test_row_selection(self, shell):
        sh, out = shell
        sh.run_line(QUERY)
        sh.run_line("select row 0 1 2")
        assert sh.session.selected_rows == (0, 1, 2)

    def test_unknown_command_reports(self, shell):
        sh, out = shell
        assert sh.run_line("frobnicate") is True
        assert "unknown command" in out.getvalue()

    def test_errors_are_caught_not_raised(self, shell):
        sh, out = shell
        sh.run_line("zoom")  # out of order
        assert "error:" in out.getvalue()

    def test_quit_stops(self, shell):
        sh, __ = shell
        assert sh.run_line("quit") is False

    def test_comments_and_blank_lines_ignored(self, shell):
        sh, out = shell
        assert sh.run_line("") is True
        assert sh.run_line("# a comment") is True
        assert out.getvalue() == ""

    def test_parse_brush_forms(self):
        brush, rest = DemoShell._parse_brush(["y>", "5", "std"])
        assert isinstance(brush, Brush) and rest == ["std"]
        brush, __ = DemoShell._parse_brush(["y<", "0"])
        assert brush.y1 == 0
        brush, __ = DemoShell._parse_brush(["x=", "3"])
        assert brush.x0 == brush.x1 == 3
        rows, __ = DemoShell._parse_brush(["row", "1", "2"])
        assert rows == [1, 2]
        with pytest.raises(ReproError):
            DemoShell._parse_brush([])
        with pytest.raises(ReproError):
            DemoShell._parse_brush(["nonsense"])

    def test_repl_reads_until_quit(self, shell):
        sh, out = shell
        stdin = io.StringIO(QUERY + "\nquit\n")
        sh.repl(stdin=stdin)
        assert "rows" in out.getvalue()


class TestDatasetsAndMain:
    def test_load_dataset_names(self):
        assert "contributions" in load_dataset("fec").table_names
        assert "readings" in load_dataset("intel").table_names
        with pytest.raises(ReproError):
            load_dataset("nope")

    def test_bootstrap_queries_parse(self):
        for name, query in BOOTSTRAP_QUERIES.items():
            db = load_dataset(name)
            result = db.sql(query)
            assert result.num_rows > 0

    def test_scripts_reference_known_commands(self):
        known = {"sql", "show", "select", "zoom", "inputs", "forms",
                 "metric", "debug", "apply", "undo", "redo", "query"}
        for script in SCRIPTS.values():
            for line in script:
                assert line.split()[0] in known

    def test_main_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out.lower()
        assert "demo" in out and "sql" in out

    def test_main_unknown_dataset(self, capsys):
        assert main(["mars"]) == 2

    def test_main_scripted_fec(self, capsys):
        assert main(["fec", "--script"]) == 0
        out = capsys.readouterr().out
        assert "Ranked predicates" in out
        assert "applied: NOT" in out


class TestServeFlags:
    """``serve`` refuses flags it does not know before starting anything."""

    @pytest.fixture
    def no_server(self, monkeypatch):
        """Fail loudly if serve_main gets as far as building a server."""
        import repro.service as service

        def refuse(*args, **kwargs):
            raise AssertionError("serve_main built a server for bad flags")

        for name in ("AsyncDBWipesServer", "DBWipesServer", "SessionManager"):
            monkeypatch.setattr(service, name, refuse)
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        monkeypatch.delenv("REPRO_SLOW_REQUEST_SECONDS", raising=False)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--wokers", "2"], "unknown flag '--wokers'"),
            (["--backend", "partitioned"], "unknown flag '--backend'"),
            (["--partitions", "4"], "unknown flag '--partitions'"),
            (["stray"], "unknown flag 'stray'"),
            (["--port"], "flag --port needs a value"),
            (["--data-dir", "--async"], "flag --data-dir needs a value"),
            (["--workers", "-1"], "--workers must be >= 0"),
        ],
    )
    def test_bad_flags_exit_2(self, no_server, capsys, argv, message):
        argv = ["--slow-threshold", "0.5", "--data-dir", "/nonexistent"] + argv
        assert serve_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        # Rejected before any environment variable is exported.
        assert "REPRO_DATA_DIR" not in os.environ
        assert "REPRO_SLOW_REQUEST_SECONDS" not in os.environ

    def test_unknown_flag_via_main(self, no_server, capsys):
        assert main(["serve", "--wokers", "2"]) == 2
        assert "error: unknown flag '--wokers'" in capsys.readouterr().err

    def test_every_documented_flag_is_accepted(self):
        documented = set(re.findall(r"``(--[a-z-]+)", serve_main.__doc__))
        assert documented <= set(SERVE_VALUE_FLAGS) | set(SERVE_SWITCHES)
        _check_flags(
            ["--async", "--workers", "2", "--port", "0", "--data-dir", "D"],
            SERVE_VALUE_FLAGS,
            SERVE_SWITCHES,
        )
        argv = []
        for flag in SERVE_VALUE_FLAGS:
            argv += [flag, "1"]
        _check_flags(argv + list(SERVE_SWITCHES), SERVE_VALUE_FLAGS, SERVE_SWITCHES)

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("connect", ["--session", "s", "--dataset", "fec", "--script"]),
            ("metrics", ["--json"]),
            ("drain", ["--worker", "0", "--deadline", "1", "--restart"]),
        ],
    )
    def test_other_commands_keep_their_own_flags(
        self, monkeypatch, capsys, command, argv
    ):
        import repro.service as service

        class OfflineClient:
            """Accepts construction; every call fails as if unreachable."""

            def __init__(self, *args, **kwargs):
                pass

            def close(self):
                pass

            def __getattr__(self, name):
                def offline(*args, **kwargs):
                    raise ReproError("offline")

                return offline

        monkeypatch.setattr(service, "ServiceClient", OfflineClient)
        # Each command gets as far as calling the server: its flags parsed.
        assert main([command, "--port", "1"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ")
        assert "flag" not in err
