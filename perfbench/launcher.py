"""Run one prognost CLI stage with spans recorded around its public functions.

    python perfbench/launcher.py SPANS_JSON RUN_ID STAGE [STAGE ARGS...]

``src`` must be on PYTHONPATH. The import of ``prognost.cli`` gets its own
span, the stage gets a ``cli.<stage>`` span, and all spans are written to
SPANS_JSON when the stage returns. The exit code is the stage's.
"""

import sys

from tracing import Recorder, instrument


def main(argv: list[str]) -> int:
    out, run_id, stage_args = argv[0], argv[1], argv[2:]
    rec = Recorder(run_id)
    try:
        span = rec.open("cli.import")
        import prognost.cli
        rec.close(span)
        instrument(rec, sys.modules)
        span = rec.open(f"cli.{stage_args[0]}")
        try:
            return prognost.cli.run(stage_args)
        finally:
            rec.close(span)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
