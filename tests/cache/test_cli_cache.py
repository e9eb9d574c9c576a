"""``repro cache``: a directory that does not exist is a usage error,
not an empty store."""

import os

import pytest

from repro.cli import main

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "examples", "telemetry_demo.s")


@pytest.mark.parametrize("action", ["stats", "inspect", "clear"])
def test_missing_dir_is_a_usage_error_that_creates_nothing(
        tmp_path, capsys, action):
    missing = tmp_path / "typo"
    assert main(["cache", action, "--dir", str(missing)]) == 2
    assert not missing.exists()
    assert "no cache directory" in capsys.readouterr().err


def test_stats_and_inspect_list_a_run_written_by_another_store(
        tmp_path, capsys):
    store = str(tmp_path / "cache")
    assert main(["run", DEMO, "--cache-dir", store]) == 0
    assert main(["run", DEMO, "--cache-dir", store]) == 0
    out = capsys.readouterr().out
    assert "0 hit(s) (0 from disk), 1 miss(es), 1 stored" in out
    assert "1 hit(s) (1 from disk), 0 miss(es), 0 stored" in out
    assert main(["cache", "stats", "--dir", store]) == 0
    assert "entries : 1" in capsys.readouterr().out
    assert main(["cache", "inspect", "--dir", store]) == 0
    assert "/bin/telemetry_demo  verdict=high" in capsys.readouterr().out
