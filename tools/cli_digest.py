"""Digest of the pinned CLI commands' outputs, for byte-identity checks.

Runs the golden commands of ``tests/test_golden.py``, perfbench's fixed
commands and every metric of its c2 pool as ``python -m cayleydist``
subprocesses on the ``src/`` of the source tree given, and prints one line per
command: exit code, sha256 of stdout, sha256 of stderr, and the command.  The
command lists come from the tree holding this script, so two trees run the
same commands and their outputs are byte-identical exactly when the digests
are:

    python tools/cli_digest.py PARENT_TREE > parent.txt
    python tools/cli_digest.py . > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no __pycache__ under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402  (reads the lists; changes nothing under perfbench/)


def commands() -> dict[str, wl.Command]:
    """Every distinct command by its key: golden, perfbench fixed, c2 pool."""
    module = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    golden = next(ast.literal_eval(node.value) for node in module.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "COMMANDS")
    cmds = [wl.Command(key=line, argv=tuple(line.split())) for line in golden]
    cmds += [cmd for fixed in wl.FIXED.values() for cmd in fixed]
    cmds += [wl.pool_command(entry) for stratum in wl.load_c2_pool() for entry in stratum]
    return {cmd.key: cmd for cmd in cmds}


def main(tree: str) -> None:
    base = {k: v for k, v in os.environ.items() if k != "THREADS"}
    base.update(PYTHONPATH=str(Path(tree).resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as work:
        for key, cmd in commands().items():
            if cmd.config is not None:
                Path(work, cmd.argv[-1]).write_text(json.dumps(cmd.config))
            proc = subprocess.run([sys.executable, "-m", "cayleydist", *cmd.argv],
                                  capture_output=True, cwd=work, env={**base, **dict(cmd.env)})
            digests = (hashlib.sha256(s).hexdigest() for s in (proc.stdout, proc.stderr))
            print(proc.returncode, *digests, key, flush=True)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(ROOT))
