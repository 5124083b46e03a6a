"""Set-up probe: import wignerlab and validate one workload's inputs, nothing more.

Usage: python3 perfbench/setup_probe.py config CONFIG_JSON
       python3 perfbench/setup_probe.py volterra H_LIST T_MAX

run.py times this process from spawn to exit; that wall time is setup_s.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    import wignerlab.cli as cli

    if argv[0] == "config":
        cli.parse_config(argv[1])
    elif argv[0] == "volterra":
        from wignerlab.volterra import uniform_grid

        t_max = float(argv[2])
        for h in argv[1].split(","):
            uniform_grid(t_max, float(h))
    else:
        print(f"unknown probe kind {argv[0]!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
