"""Run one lpmult CLI command with spans around its layers.

    python3 perfbench/launch.py SPANS_OUT -- <lpmult arguments>

The spans (the root one is cli.main) are written to SPANS_OUT as JSON when
the command returns; the exit code is the command's.
"""

import sys

import tracing


def main(argv):
    out, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_OUT -- <lpmult arguments>")
    import lpmult.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = tracer.wrap("cli.main", lpmult.cli.main)(args)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
