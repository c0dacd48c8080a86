"""The run CLI (``python -m repro.run``): argument validation, and a
killed-and-resumed run writing the uninterrupted run's trace."""

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
    # removed option: per-crowd segment traces are gone
    "--segment-dir segments": "unrecognized arguments: --segment-dir segments",
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


def test_resumed_run_writes_the_uninterrupted_trace(tmp_path, capsys):
    """4 DMC generations in one go, and 2 + 2 through ``--resume``:
    byte-identical traces."""
    def run(name, steps, *extra):
        root = tmp_path / name
        root.mkdir(exist_ok=True)
        argv = ["--mode", "dmc", "--walkers", "6", "--steps", str(steps),
                "--trace", str(root / "run.trace"),
                "--checkpoint", str(root / "run.ckpt"),
                "--checkpoint-every", "2", *extra]
        assert main(argv) == 0
        return root / "run.trace"

    full = run("full", 4)
    run("resumed", 2)
    resumed = run("resumed", 2, "--resume")
    out, _ = capsys.readouterr()
    assert "resuming from" in out and "at generation 2" in out
    assert resumed.read_bytes() == full.read_bytes()
