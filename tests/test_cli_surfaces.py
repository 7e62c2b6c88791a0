"""The four CLI entry points share one flag surface (`repro.cli`).

Every operator-facing flag group — store locators, auth, logging — is
defined once as an argparse parent and inherited by all four entry
points, so `--auth-key-file` means the same thing whether it is handed
to the experiment runner, a fleet worker, the object server or the
model server.  The table below is the contract; the test walks each
``--help`` text so a surface that drops or forks a flag fails here,
not in an operator's shell.
"""

from __future__ import annotations

import contextlib
import io
import re
import threading

import pytest

from repro import cli

#: entry point -> flags its surface must expose.  Store flags belong to
#: every surface that reads or serves a store (a fleet worker receives
#: each plan's state in its assignment and opens none); auth and logging
#: flags are universal by design.
_SHARED_FLAGS = ("--auth-key-file", "--insecure",
                 "--log-format", "--log-level")
SURFACES = {
    "repro.experiments.__main__": _SHARED_FLAGS + ("--store-dir", "--store-url"),
    "repro.distributed.worker": _SHARED_FLAGS,
    "repro.datasets.object_server": _SHARED_FLAGS + ("--bind", "--port"),
    "repro.serving.server": _SHARED_FLAGS + ("--store-dir", "--store-url",
                                             "--bind", "--port"),
}


def _help_text(module_name: str) -> str:
    import importlib

    module = importlib.import_module(module_name)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        with pytest.raises(SystemExit) as excinfo:
            module.main(["--help"])
    assert excinfo.value.code in (0, None)
    return buffer.getvalue()


class TestSharedSurface:
    @pytest.mark.parametrize("module_name,flags", sorted(SURFACES.items()),
                             ids=sorted(SURFACES))
    def test_surface_exposes_the_shared_flags(self, module_name, flags):
        text = _help_text(module_name)
        missing = [flag for flag in flags if flag not in text]
        assert not missing, (f"{module_name} --help is missing {missing}; "
                             "shared flags live in repro.cli parents")

    def test_fleet_worker_has_no_store_or_retry_flags(self):
        text = _help_text("repro.distributed.worker")
        for flag in ("--store-dir", "--store-url", "--max-retries"):
            assert flag not in text, f"fleet worker --help lists {flag}"

    @pytest.mark.parametrize("flag,value", [("--batch-cells", "auto"),
                                            ("--batch-size", "2")])
    def test_experiments_cli_has_no_batch_flags(self, flag, value):
        """Batch and lease shapes are fixed per executor: the flags that
        set them are gone, and argparse refuses them (exit 2)."""
        from repro.experiments.__main__ import main

        assert flag not in _help_text("repro.experiments.__main__")
        with contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as excinfo:
                main(["figure6", "--quick", flag, value])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0"],
        ["--executor", "remote", "--jobs", "-3"],
        ["--executor", "remote", "--workers", "-1"],
        ["--executor", "remote", "--workers", "0"],
    ], ids=["jobs-0", "remote-jobs-negative", "remote-workers-negative",
            "remote-workers-0-without-bind"])
    def test_bad_worker_counts_are_usage_errors(self, argv):
        """A worker count no pool or fleet can have is refused by argparse
        (exit 2) before any store, pool or coordinator opens, so no
        listener or accept thread is left behind."""
        from repro.experiments.__main__ import main

        before = set(threading.enumerate())
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            with pytest.raises(SystemExit) as excinfo:
                main(["figure5", "--quick", *argv])
        assert excinfo.value.code == 2
        assert re.search(r"error: --(jobs|workers) ", stderr.getvalue())
        assert not [thread for thread in set(threading.enumerate()) - before
                    if thread.name == "fleet-accept"]

    @pytest.mark.parametrize("names", [["ablation_tree_method"], ["figure5", "figure99"]],
                             ids=["deleted-name", "after-a-known-name"])
    def test_unknown_experiment_names_are_usage_errors(self, monkeypatch, names):
        """An experiment name outside ``EXPERIMENTS`` is refused by argparse
        (exit 2) right after parsing: no experiment runs and, under
        ``--executor remote``, no coordinator opens."""
        import repro.experiments.__main__ as experiments_cli
        from repro.distributed import coordinator

        opened = []

        def refuse(*args, **kwargs):
            opened.append(args)
            raise AssertionError("opened before the names were checked")

        monkeypatch.setattr(coordinator, "Coordinator", refuse)
        monkeypatch.setattr(experiments_cli, "run_experiment", refuse)
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            with pytest.raises(SystemExit) as excinfo:
                experiments_cli.main([*names, "--quick", "--executor", "remote",
                                      "--jobs", "2"])
        assert excinfo.value.code == 2
        assert f"unknown experiment(s): {names[-1]}" in stderr.getvalue()
        assert opened == []

    def test_store_flags_are_mutually_exclusive(self):
        parser = __import__("argparse").ArgumentParser(
            parents=[cli.add_store_args()])
        with pytest.raises(SystemExit):
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(["--store-dir", "d", "--store-url", "u"])


class TestAuthHelpers:
    def test_load_auth_key_reads_and_strips(self, tmp_path):
        path = tmp_path / "fleet.key"
        path.write_bytes(b"  s3cret\n")
        assert cli.load_auth_key(str(path)) == b"s3cret"
        assert cli.load_auth_key(None) is None

    def test_load_auth_key_rejects_empty_and_missing(self, tmp_path):
        empty = tmp_path / "empty.key"
        empty.write_bytes(b"\n")
        with pytest.raises(ValueError, match="empty"):
            cli.load_auth_key(str(empty))
        with pytest.raises(ValueError):
            cli.load_auth_key(str(tmp_path / "nope.key"))

    def test_is_loopback(self):
        assert cli.is_loopback("127.0.0.1")
        assert cli.is_loopback("::1")
        assert cli.is_loopback("localhost")
        assert cli.is_loopback("")
        assert not cli.is_loopback("0.0.0.0")
        assert not cli.is_loopback("192.168.1.5")
        assert not cli.is_loopback("example.com")

    def test_non_loopback_bind_requires_key_or_insecure(self):
        import argparse

        parser = argparse.ArgumentParser()
        # Loopback: always fine.
        cli.check_bind_safety(parser, "127.0.0.1", auth=None, insecure=False)
        # Non-loopback with a key or with --insecure: fine.
        cli.check_bind_safety(parser, "0.0.0.0", auth=b"k", insecure=False)
        cli.check_bind_safety(parser, "0.0.0.0", auth=None, insecure=True)
        # Non-loopback, keyless, not --insecure: hard startup error.
        with pytest.raises(SystemExit):
            with contextlib.redirect_stderr(io.StringIO()):
                cli.check_bind_safety(parser, "0.0.0.0", auth=None,
                                      insecure=False)
