"""``python -m catentropy`` with the benchmark's tracer installed.

Usage: python3 perfbench/cli_child.py <catentropy arguments>

Runs the CLI exactly as ``python -m catentropy`` does, then writes one line
``PERFBENCH-TRACE <json>`` with the per-layer stats to standard error.
"""

import json
import runpy
import sys

from tracer import Tracer

MARKER = "PERFBENCH-TRACE "


def main() -> None:
    tracer = Tracer()
    tracer.install()
    sys.argv = ["catentropy"] + sys.argv[1:]
    try:
        runpy.run_module("catentropy", run_name="__main__", alter_sys=True)
    finally:
        sys.stderr.write(
            MARKER + json.dumps({"stats": tracer.stats, "absent": tracer.absent}) + "\n"
        )


if __name__ == "__main__":
    main()
