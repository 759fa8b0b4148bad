"""Run one gsrep CLI job with the layer wrappers installed.

Usage: python3 benchmark/cli_job.py SPANS_FILE [gsrep arguments...]

Behaves like ``python -m gsrep.cli`` (same output, exit status and
tracebacks) and writes the job's spans to SPANS_FILE when it ends.
"""

import sys

import layertrace


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer()
    tracer.install()
    import gsrep.cli

    try:
        return gsrep.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
