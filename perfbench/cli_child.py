"""`python -m boxworld` with spans: the traced run of the cli workload.

    python3 perfbench/cli_child.py <boxworld arguments>

Runs boxworld.cli.main in this process with the benchmark's spans
installed (tracing.instrument), then writes the spans and counters as one
line, `perfbench-spans {json}`, at the end of stderr.  stdout and the exit
code are the CLI's own.
"""

import json
import sys
from pathlib import Path

SPANS_PREFIX = "perfbench-spans "

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer, instrument

    import boxworld.cli

    tracer = Tracer()
    try:
        with instrument(tracer):
            code = boxworld.cli.main(sys.argv[1:])
    except SystemExit as stop:  # argparse exits this way
        code = stop.code
    sys.stdout.flush()
    sys.stderr.write(SPANS_PREFIX + json.dumps({"spans": tracer.spans, "counts": tracer.counts}) + "\n")
    sys.exit(code)
