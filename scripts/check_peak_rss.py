#!/usr/bin/env python3
"""vrl-check-peak-rss: run one command and gate its peak resident memory.

    python3 scripts/check_peak_rss.py --budget-mb MB [--label TEXT] \
        -- COMMAND [ARG...]

Runs COMMAND once with its stdout discarded, reads the peak resident set
size of the finished child from getrusage(RUSAGE_CHILDREN) (this process
waits for no other child, so the maximum is that command's own), and
prints one line:

    <label>: peak RSS 68.2 MB (budget 85 MB)

Peak RSS repeats from machine to machine where wall time does not, so a
budget catches a memory regression on a shared CI runner.  Environment
variables (VRL_THREADS) pass through to the command.

Exit status: the command's own when it fails, 1 when the peak is above
the budget, else 0.  Python standard library only.
"""

import argparse
import resource
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget-mb", type=float, required=True)
    parser.add_argument("--label", help="name printed for the run "
                        "(default: the command)")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    label = args.label or " ".join(command)

    result = subprocess.run(command, stdout=subprocess.DEVNULL)
    if result.returncode != 0:
        print(f"{label}: exited {result.returncode}", file=sys.stderr)
        return result.returncode
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{label}: peak RSS {peak_mb:.1f} MB (budget {args.budget_mb:g} MB)")
    if peak_mb > args.budget_mb:
        print(f"{label}: peak RSS above budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
