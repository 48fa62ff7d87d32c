"""One fresh pfscheme process of the benchmark.

    python3 child.py META [--trace SPANS] --cli ARG...      one CLI command
    python3 child.py META [--trace SPANS] --paper 3,1,...   criteria in order
    python3 child.py META --import-only                     import and exit

The CLI command writes its report to stdout and exits with the CLI's exit
code, as `pfscheme` does.  META receives the timings taken inside the
entry points (and, for --paper, each criterion's outcome); SPANS receives
the recorded spans.  pfscheme is imported from `src/` beside this
directory.
"""

import json
import os
import sys
import time

t_start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402,F401
from pfscheme import cli, verify  # noqa: E402

import_s = time.perf_counter() - t_start


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, default=int)


def main(argv):
    meta_path, rest = argv[0], argv[1:]
    meta = {"import_s": import_s}
    tracer = None
    if rest[0] == "--trace":
        from layers import Tracer
        spans_path, rest = rest[1], rest[2:]
        tracer = Tracer()
        tracer.install()
    mode, args = rest[0], rest[1:]
    code = 0
    if mode == "--cli":
        t0 = time.perf_counter()
        code = cli.main(args)
        meta["main_s"] = time.perf_counter() - t0
    elif mode == "--paper":
        meta["criteria"] = []
        for i in (int(x) for x in args[0].split(",")):
            t0 = time.perf_counter()
            try:
                r = getattr(verify, "criterion_%d" % i)()
                outcome = {"passed": r.passed, "detail": r.detail}
            except Exception as exc:  # noqa: BLE001 - one criterion fails, the pass goes on
                outcome = {"error": "%s: %s" % (type(exc).__name__, exc)}
            outcome.update(index=i, seconds=time.perf_counter() - t0)
            meta["criteria"].append(outcome)
    elif mode != "--import-only":
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.flush()
    if tracer is not None:
        _write(spans_path, {"spans": tracer.spans, "missing": tracer.missing})
    _write(meta_path, meta)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
