"""Run a command, then print its wall time and peak resident set size.

    python .github/peak_rss.py [--max-mib N] COMMAND [ARG ...]

The peak is `ru_maxrss` of the waited-for children (KiB on Linux), so a
`timeout` in front of the command still reports the process it runs.  Exits
with the command's status, or 1 if the command succeeded but its peak passed
`--max-mib`.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    limit = None
    if argv[:1] == ["--max-mib"]:
        limit, argv = float(argv[1]), argv[2:]
    start = time.perf_counter()
    status = subprocess.call(argv)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(argv)}: exit {status}, {wall:.2f} s wall, peak RSS {peak:.1f} MiB", flush=True)
    if status == 0 and limit is not None and peak > limit:
        print(f"peak RSS {peak:.1f} MiB passes the limit of {limit:g} MiB")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
