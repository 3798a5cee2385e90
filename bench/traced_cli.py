"""Run ``geoplan ARGS`` with spans on, then report the spans on stderr.

Usage: ``python3 bench/traced_cli.py geodesics klein 1/7,2/9 3/5,5/7``.
The command's own stdout and exit code are passed through unchanged; the
last stderr line is ``BENCH_SPANS <json>`` with one list per span.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spans  # noqa: E402
from geoplan import cli  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(spans.MARKER + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
