"""Run one gradedlie CLI command with tracing; used by the traced cli deck.

Usage: python3 benchmark/clitrace.py SPANS_PATH COMMAND [ARGS...]

Behaves like `python -m gradedlie.cli COMMAND [ARGS...]` (same standard
output and exit code), and also writes the spans of the command to
SPANS_PATH.bin and SPANS_PATH.json, with the time taken by a fresh
`import gradedlie` and by cli.main.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    spans, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import gradedlie  # noqa: F401
    import_s = time.perf_counter() - start
    from gradedlie import cli

    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    main_s = tracer.span_end[0] - tracer.span_start[0]
    tracer.dump(spans, {"import_s": import_s, "main_s": main_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
