"""Traced stand-in for ``python -m harmradius.cli``.

Usage: cli_child.py SPAN_FILE ARGS...

Times ``import harmradius.cli`` as an ``import.harmradius`` span, installs
the boundary wrappers, runs ``cli.main(ARGS)`` inside a ``cli.main``
span (with ``parse_args`` as ``cli.parse_args``), writes the spans to
SPAN_FILE and exits with main's return code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    span_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    try:
        i = tracer.open("import.harmradius")
        import harmradius
        import harmradius.cli as cli
        tracer.close(i)
        tracer.install(harmradius)
        build = cli.build_parser

        def traced_build_parser():
            parser = build()
            parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
            return parser

        cli.build_parser = traced_build_parser
        i = tracer.open("cli.main")
        try:
            rc = cli.main(argv)
        finally:
            tracer.close(i)
        sys.stdout.flush()
        return rc
    finally:
        span_file.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
