"""The command-line interface, driven through main() with scripts."""

import re

import numpy as np
import pytest

from repro.cli import ExplorationREPL, build_parser, main
from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.session import ExplorationSession, SessionConfig
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-data")
    assert main(
        [
            "generate", "dbauthors", "--out", str(directory),
            "--users", "200", "--seed", "41",
        ]
    ) == 0
    return directory


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, data_dir):
    directory = tmp_path_factory.mktemp("cli-store")
    code = main(
        [
            "discover",
            "--actions", str(data_dir / "actions.csv"),
            "--demographics", str(data_dir / "demographics.csv"),
            "--name", "cli-db",
            "--min-support", "0.08",
            "--store", str(directory),
        ]
    )
    assert code == 0
    return directory


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "commands" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiments", "--only", "Z9"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "bookcrossing", "--out", "x"])
        assert args.dataset == "bookcrossing"


class TestGenerate:
    def test_files_written(self, data_dir):
        assert (data_dir / "actions.csv").exists()
        assert (data_dir / "demographics.csv").exists()

    def test_bookcrossing_variant(self, tmp_path):
        assert main(
            [
                "generate", "bookcrossing", "--out", str(tmp_path),
                "--users", "120", "--items", "80", "--ratings", "600",
            ]
        ) == 0
        assert (tmp_path / "actions.csv").exists()


class TestDiscover:
    def test_store_artifacts_exist(self, store_dir):
        assert (store_dir / "space.json").exists()
        assert (store_dir / "members.npz").exists()
        assert (store_dir / "index.json").exists()


class TestExplore:
    def _run(self, data_dir, store_dir, script, capsys):
        code = main(
            [
                "explore",
                "--actions", str(data_dir / "actions.csv"),
                "--demographics", str(data_dir / "demographics.csv"),
                "--name", "cli-db",
                "--store", str(store_dir),
                "--script", script,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_click_and_quit(self, data_dir, store_dir, capsys):
        out = self._run(data_dir, store_dir, "click 1; quit", capsys)
        assert out.count("GROUPVIZ:") == 2
        assert "diversity=" in out
        assert "bye" in out

    def test_full_gesture_set(self, data_dir, store_dir, capsys):
        out = self._run(
            data_dir, store_dir,
            "click 1; context; stats 1 gender; memo g 1; memo; history; back 0; quit",
            capsys,
        )
        assert "CONTEXT:" in out
        assert "[gender]" in out
        assert "bookmarked group" in out
        assert "MEMO: 1 groups" in out
        assert "HISTORY: start ->" in out

    def test_bad_position_reports(self, data_dir, store_dir, capsys):
        out = self._run(data_dir, store_dir, "click 99; quit", capsys)
        assert "not on screen" in out

    def test_unknown_command_reports(self, data_dir, store_dir, capsys):
        out = self._run(data_dir, store_dir, "dance; quit", capsys)
        assert "unknown command" in out

    def test_forget_token(self, data_dir, store_dir, capsys):
        out = self._run(
            data_dir, store_dir, "click 1; forget nothing-learned; quit", capsys
        )
        assert "nothing learned" in out


class TestServe:
    def test_multi_session_replay(self, data_dir, store_dir, capsys):
        code = main(
            [
                "serve",
                "--actions", str(data_dir / "actions.csv"),
                "--demographics", str(data_dir / "demographics.csv"),
                "--name", "cli-db",
                "--store", str(store_dir),
                "--sessions", "3",
                "--clicks", "2",
                "--threads", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime ready" in out and "shared cache" in out
        assert re.search(
            r"shared cache: \d+ structures \(\d+ hits\), "
            r"\d+ results \(\d+ hits\)",
            out,
        )
        assert out.count("clicks, p50") == 3
        assert "all sessions: p50" in out

    def test_baseline_mode_has_no_shared_cache(self, data_dir, store_dir, capsys):
        code = main(
            [
                "serve",
                "--actions", str(data_dir / "actions.csv"),
                "--demographics", str(data_dir / "demographics.csv"),
                "--name", "cli-db",
                "--store", str(store_dir),
                "--sessions", "2",
                "--clicks", "1",
                "--no-shared-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-session cache" in out
        assert "shared cache:" not in out

    def test_bad_counts_rejected(self, data_dir, store_dir, capsys):
        assert main(
            [
                "serve",
                "--actions", str(data_dir / "actions.csv"),
                "--name", "cli-db",
                "--store", str(store_dir),
                "--sessions", "0",
            ]
        ) == 2

    def test_idle_ttl_requires_state_dir(self, data_dir, store_dir, capsys):
        assert main(
            [
                "serve",
                "--actions", str(data_dir / "actions.csv"),
                "--name", "cli-db",
                "--store", str(store_dir),
                "--http", "--idle-ttl", "60",
            ]
        ) == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_http_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "serve", "--actions", "a.csv", "--store", "st",
                "--http", "--port", "8765", "--state-dir", "sessions",
                "--idle-ttl", "900", "--max-sessions", "64",
            ]
        )
        assert args.http and args.port == 8765
        assert args.state_dir == "sessions" and args.idle_ttl == 900.0
        assert args.max_sessions == 64


class TestREPLUnit:
    @pytest.fixture(scope="class")
    def repl(self):
        data = generate_dbauthors(DBAuthorsConfig(n_authors=150, seed=43))
        space = discover_groups(
            data.dataset,
            DiscoveryConfig(method="lcm", min_support=0.1, max_description=2),
        )
        lines: list[str] = []
        session = ExplorationSession(space, config=SessionConfig(k=3))
        repl = ExplorationREPL(session, lines.append)
        repl.show(session.start())
        return repl, lines

    def test_empty_line_is_noop(self, repl):
        instance, _ = repl
        assert instance.execute("") is True

    def test_quit_ends(self, repl):
        instance, _ = repl
        assert instance.execute("quit") is False

    def test_memo_unknown_user(self, repl):
        instance, lines = repl
        instance.execute("memo u not-a-person")
        assert any("unknown user" in line for line in lines)

    def test_back_bad_step(self, repl):
        instance, lines = repl
        instance.execute("back 99")
        assert any("99" in line for line in lines)


class TestScenarioAndExperiments:
    def test_experiments_fast_set(self, capsys):
        assert main(["experiments", "--only", "C12"]) == 0
        out = capsys.readouterr().out
        assert "[C12]" in out and "PARADOX" in out
