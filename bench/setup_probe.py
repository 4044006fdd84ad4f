"""Child process for ``setup_s``: a fresh interpreter imports ``multipoint.cli``
and turns every invocation read from stdin into a ``RunSpec``.

Stdin holds one invocation per line, arguments separated by ``\\x1f``.  The
program is imported from the ``src`` directory given as the only argument.
Prints the elapsed seconds; reading stdin and interpreter start-up are not
timed.
"""

import sys
import time

src = sys.argv[1]
lines = sys.stdin.read().splitlines()
sys.path.insert(0, src)

start = time.perf_counter()
from multipoint import cli  # noqa: E402

for line in lines:
    cli.RunSpec.from_args(cli.build_parser().parse_args(line.split("\x1f")))
elapsed = time.perf_counter() - start

if not cli.__file__.startswith(src):
    sys.exit(f"multipoint imported from {cli.__file__}, not {src}")
print(repr(elapsed))
