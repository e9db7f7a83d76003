"""Record the expected output digest of every CLI command line the benchmark runs.

Run from the root of a checkout whose outputs are known to be right:
``python3 perfbench/record_digests.py``.  Each command line runs as a fresh
``python -m polybern.cli`` process and must exit with code 0; the SHA-256
digest of its standard output is written to ``perfbench/digests.json``.
"""

import hashlib
import json
import sys

from run import DIGESTS, every_command_line, spawn


def main() -> int:
    digests = {}
    for line in every_command_line():
        child = spawn([sys.executable, "-m", "polybern.cli", *line.split()])
        if child["exit"] != 0:
            print(f"{line!r} exited with {child['exit']}: {child['stderr']}", file=sys.stderr)
            return 1
        digests[line] = hashlib.sha256(child["stdout"]).hexdigest()
        print(f"{child['elapsed']:7.3f}s  {line}")
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
