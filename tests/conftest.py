"""Let processes started by the tests import the in-tree package too.

``pythonpath = ["src"]`` in pyproject.toml covers imports inside the test
process; child processes (``python -m polybern.cli``) read PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)
