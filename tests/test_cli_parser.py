"""The CLI's argument parser is built once per process and reused by every
``main`` call, with the same exit codes and messages each time."""

import pytest

from mimocast import cli


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    cli._parser.cache_clear()
    codes = [cli.main(["no-such-command"]) for _ in range(2)]
    out = tmp_path / "s.json"
    codes.append(cli.main(["scenario", "--unicast", "2", "--groups", "1",
                           "--group-size", "2", "--seed", "1", "--out", str(out)]))
    with pytest.raises(SystemExit) as version:
        cli.main(["--version"])
    assert codes == [cli.EXIT_INVALID, cli.EXIT_INVALID, cli.EXIT_OK] and out.exists()
    assert version.value.code == 0
    assert cli._parser.cache_info().misses == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1] and "no-such-command" in err[0]
