"""Run one polybern CLI command line with the per-layer tracer installed.

Usage: ``python3 perfbench/traced_cli.py verify all`` (with ``src`` on
``PYTHONPATH``).  The command's output is captured rather than printed;
one JSON object goes to standard output instead, with the command's exit
code, the SHA-256 digest and size of its output, and the raw trace totals.
"""

import hashlib
import io
import json
import sys

from polybern import cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
real_stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    code = cli.run(sys.argv[1:])
finally:
    captured, sys.stdout = sys.stdout.getvalue(), real_stdout
data = captured.encode()
json.dump(
    {
        "exit": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes_out": len(data),
        "trace": tracer.summary(),
    },
    sys.stdout,
)
sys.stdout.write("\n")
