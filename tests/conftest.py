import argparse
import os

import pytest

import roybounds
from roybounds import cli


@pytest.fixture
def cli_env():
    """Environment for a ``python -m roybounds.cli`` child process.

    The absolute directory that holds the ``roybounds`` package this process
    imported goes first on the child's PYTHONPATH, ahead of any existing
    entries. The child then runs the same code as the tests, whatever its cwd
    and however the package reached ``sys.path`` (a relative PYTHONPATH,
    pytest's ``pythonpath`` option or an installed copy).
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(roybounds.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def declared_options():
    """The options each CLI subcommand declares, by subcommand, without -h/--help."""
    (sub,) = [a for a in cli._make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        cmd: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for cmd, p in sub.choices.items()
    }
