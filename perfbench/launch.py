"""Run one doubled_spectral CLI request with the layer tracer installed.

Usage: python3 launch.py SPANS_PATH REQUEST_ID SUBCOMMAND [ARGS...]

Equivalent to `python -m doubled_spectral SUBCOMMAND [ARGS...]`, except
that the package's public functions are wrapped before `cli.main` runs and
the spans are written to SPANS_PATH when it returns.
"""

import sys

import tracing


def main() -> int:
    spans_path, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    from doubled_spectral import cli

    tracer = tracing.Tracer(request)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracing.dump_spans(tracer.spans, spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
