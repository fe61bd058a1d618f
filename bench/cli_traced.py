"""`python -m ginv.cli ARGS` with the span tracer installed, for the traced
cli run.  Spans are saved to $BENCH_SPANS_OUT when main() returns."""

import os
import sys

import ginv.cli  # on PYTHONPATH, which run.py sets
import tracer as tr

if __name__ == "__main__":
    t = tr.Tracer()
    t.install()
    t.op_id, t.active = 0, True
    try:
        code = ginv.cli.main(sys.argv[1:])
    finally:
        t.active = False
        t.uninstall()
        t.save(os.environ["BENCH_SPANS_OUT"])
    sys.exit(code)
