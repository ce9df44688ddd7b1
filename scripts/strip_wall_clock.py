#!/usr/bin/env python3
"""Print a JSON output file minus the values that differ between identical runs.

Determinism checks run a tool twice on the same inputs and diff what it
wrote: an `lslsim --metrics` snapshot or a bench's `--json` records
(bench_common.hpp JsonRecords). Both put one instrument or record per
line. Every line must match exactly except the ones this filter drops:
wall-clock readings and the run's own --jobs setting.

This is the one list of such names; CI's determinism diffs all call this
script. A new wall-clock instrument or record must be named so that it
matches (e.g. `*_wall_seconds`, `*_per_second`), otherwise identical runs
stop comparing equal.

Usage: strip_wall_clock.py FILE    (the kept lines go to stdout)
"""

import re
import sys

WALL_CLOCK = re.compile(
    r"wall_seconds"      # elapsed wall time (bench records, sim.kernel.*)
    r"|per_second"       # wall-clock rates, and ratios of them
    r"|time_ratio"       # sim.kernel.time_ratio: simulated over wall time
    r"|tree_build_us"    # sched.mmp.tree_build_us wall-clock histogram
    r'|"jobs"'           # the --jobs setting a sweep record carries
)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        for line in f:
            if not WALL_CLOCK.search(line):
                sys.stdout.write(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
