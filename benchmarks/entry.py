"""`coxloops` as a user starts it, plus the process's own peak memory.

    PYTHONPATH=src python3 benchmarks/entry.py <coxloops argv>

Runs `coxloops.cli.main` like the installed console script and then prints
`peak_rss_kb <n>` as the last line of standard error; standard output is
the program's own.  The peak is VmHWM of this process's address space,
because `ru_maxrss` of a forked child also counts the memory its parent
had at fork time.  Linux only.
"""

import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def report_peak_rss() -> None:
    sys.stdout.flush()
    print(f"peak_rss_kb {peak_rss_kb()}", file=sys.stderr)


if __name__ == "__main__":
    from coxloops.cli import main

    try:
        code = main()
    finally:
        report_peak_rss()
    sys.exit(code)
