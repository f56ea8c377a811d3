"""Run one command of the tool in this process with spans installed.

    python perfbench/cli_traced.py SPANS.json <metaplectic arguments...>

Imports ``metaplectic.cli``, wraps the package's public functions (see
``tracing.install``), calls ``metaplectic.cli.main`` on the arguments, and
writes the spans and the wrapped names to SPANS.json.  Exits with the
command's own exit code.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import metaplectic.cli

    tracer = tracing.Tracer()
    known = tracing.install(tracer)
    rc = metaplectic.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "known": sorted(known)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
