"""Run one vampdiff CLI command under the outside-in tracer.

    python3 bench/traced_cli.py TRACE.json -- <vampdiff arguments>

Writes the tracer's raw totals to TRACE.json and exits with the command's
return code.  The command's own outputs are the same bytes as an untraced
run's.
"""
from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py TRACE.json -- <vampdiff args>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import vampdiff.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = vampdiff.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as f:
        json.dump(tracer.report(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
