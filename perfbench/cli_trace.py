"""Run one bergbesov command line with the layer wrappers installed.

    python -X importtime perfbench/cli_trace.py LAYERS_FILE ARG...

The traced cli-cold run starts every command this way instead of
`python -m bergbesov.cli ARG...`.  It times the import of bergbesov.cli,
runs main() inside a cli.main span, and writes the command's per-layer
totals to LAYERS_FILE; the exit code is main()'s.
"""

import sys
import time


def main():
    layers_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import bergbesov.cli as cli

    import_ms = 1e3 * (time.perf_counter() - t0)
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        totals = tracer.summary()
        totals["cli.import_ms"] = import_ms
        tracing.write(layers_file, totals)


if __name__ == "__main__":
    sys.exit(main())
