"""Every invocation of the CLI digest exits with a documented code.

``tools/cli_digest.py`` holds a fixed list of ``semitoric`` invocations:
README examples, extreme radii, error exits and seeded points.  This test
loads it from its file, without changing it, and runs each invocation in
process through its ``run_one``, which reads an uncaught exception as exit
code 1.
"""

import importlib.util
from pathlib import Path

from semitoric.cli import main

CLI_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def load_cli_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", CLI_DIGEST)
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    return cli_digest


def test_every_invocation_exits_with_a_documented_code(tmp_path):
    cli_digest = load_cli_digest()
    codes = {command: cli_digest.run_one(main, command, tmp_path)[0]
             for command in cli_digest.invocations()}
    assert codes
    undocumented = {c: code for c, code in codes.items()
                    if code not in (0, 2, 3, 4, 5)}
    assert not undocumented
