"""One dntk CLI stage with every dntk function traced.

    python3 perfbench/stage.py TRACE.json <dntk arguments...>

Runs `dntk.cli.main` on the arguments, writes the tracer summary to
TRACE.json and exits with the stage's own exit code. Needs `src` on
PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing
from dntk import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    code = cli.main(argv)
    with open(out, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
