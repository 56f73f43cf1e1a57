"""`python -m hypspec` with spans: the entry point of traced cli-session tasks.

    python3 perfbench/clitrace.py <hypspec CLI arguments>

Behaves like `python -m hypspec` on stdout and exit code, and writes the
spans it recorded (the package import and every traced call) as one
JSON line on stderr, for the worker to merge under the task's span.
"""

import json
import sys

from spans import SPAN_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    span = tracer.open("cli.import")
    import hypspec.cli

    tracer.close(span)
    tracer.install()
    try:
        return hypspec.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + SPAN_MARKER + json.dumps(tracer.export()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
