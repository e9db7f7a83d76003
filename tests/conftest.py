"""Let processes started by the tests import the in-tree package too.

``pythonpath = ["src"]`` in pyproject.toml covers imports inside the test
process; child processes (``python -m polybern.cli``) read PYTHONPATH.

``pytest --hypothesis-profile=mutation`` runs the property tests without the
shrink phase: against a deliberately broken kernel every failing property
test reports its first failing example instead of shrinking it.  Default runs
are unchanged.
"""

import os
from pathlib import Path

from hypothesis import Phase, settings

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)

settings.register_profile("mutation", phases=[p for p in Phase if p is not Phase.shrink])
