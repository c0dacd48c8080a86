"""Argument validation of the run CLI (``python -m repro.run``)."""

import pytest

from repro.run import main


BAD_ARGUMENTS = {
    "--walkers 0": "--walkers must be >= 1, got 0",
    "--steps 0": "--steps must be >= 1, got 0",
    "--flush-every 0": "--flush-every must be >= 1, got 0",
    "--workers -1": "--workers must be >= 0, got -1",
    "--checkpoint-every -1": "--checkpoint-every must be >= 0, got -1",
    "--resume": "--resume requires --checkpoint",
    "--checkpoint-every 2": "--checkpoint-every requires --checkpoint",
    "--segment-dir segments": "--segment-dir requires --workers >= 1",
}


@pytest.mark.parametrize("argv", BAD_ARGUMENTS)
def test_bad_arguments_exit_2_with_one_line(argv, tmp_path, capsys,
                                            monkeypatch):
    message = BAD_ARGUMENTS[argv]
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []  # nothing run, nothing written
