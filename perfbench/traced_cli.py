"""`python -m z2z8 ARGS` with span tracing, for the traced cli-small run.

    python traced_cli.py SPANS_FILE ARGS...

Installs the tracer and runs `z2z8.cli.main(ARGS)`.  When the command ends,
whether it succeeds or raises, the spans are written to SPANS_FILE and the
per-layer times and counters go to stderr on one line starting with the
span marker; sending every span through the pipe would cost more than the
command (check-identities 8 x 8 makes about 600,000).  The exit code is
that of the CLI.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, layer_times  # noqa: E402


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["z2z8.cli"].main(argv)
    finally:
        tracer.uninstall()
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps({"argv": argv, "spans": tracer.spans}))
        doc = {"layers": layer_times(tracer.spans), "counters": tracer.counters,
               "spans": len(tracer.spans)}
        sys.stderr.write("PERFBENCH_SPANS " + json.dumps(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
