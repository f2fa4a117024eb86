"""Runs one boltzgas CLI call with layer spans, for the traced cli-small run.

Usage: cli_traced.py SPANS_FILE SUBCOMMAND [ARGS...]

Behaves like ``python -m boltzgas SUBCOMMAND [ARGS...]`` (same stdout and
exit code) and writes the call's spans to SPANS_FILE when it ends.
"""
import sys

from tracer import Tracer

import boltzgas
import boltzgas.cli

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install(boltzgas)
    try:
        code = boltzgas.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])
    sys.exit(code)
