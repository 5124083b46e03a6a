"""Run one wignerlab CLI invocation with span recording, then write the spans.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- <wignerlab arguments>

wignerlab must be importable (run.py puts the checkout's src/ on PYTHONPATH).
The exit code is the CLI's own.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_JSON -- <wignerlab arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    started = time.perf_counter()
    import wignerlab.cli as cli

    import_s = time.perf_counter() - started
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    code = recorder.call("cli", cli.run_cli, (cli_args,), {})
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
