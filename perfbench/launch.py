"""Traced stand-in for ``python -m lowdin.cli``.

Usage: python perfbench/launch.py DUMP CAPTURE <lowdin arguments...>

Installs the tracer's wrappers, runs ``lowdin.cli.main`` with the given
arguments and exits with its status.  An exception escapes exactly as it
would from ``python -m lowdin.cli`` (traceback, exit 1).  The spans are
pickled to DUMP once, at exit.  CAPTURE=1 also keeps the matrices passed
to ``hermitian_eigen``, for the sweep count and the LAPACK reference.
"""

import pickle
import sys

import tracing

import lowdin.cli


def main() -> None:
    dump, capture, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.capture = capture
    patched = tracing.install(tracer)
    try:
        status = lowdin.cli.main(argv)
    finally:
        tracing.uninstall(patched)
        with open(dump, "wb") as handle:
            pickle.dump(
                {"spans": tracer.spans, "errors": dict(tracer.errors), "eigen": tracer.eigen_inputs},
                handle,
            )
    raise SystemExit(status)


if __name__ == "__main__":
    main()
