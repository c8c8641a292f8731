"""Set-up probe for the credlab benchmark.

Runs the credlab CLI with the arguments it is given and, at the moment the
first replication starts (the first call of ``observe`` from the harness),
prints the wall-clock time and exits at once.  The parent process subtracts
the time it launched the probe, so the difference covers interpreter start,
imports, config parsing and signal construction.

    python3 perfbench/setup_probe.py indep-l2 --n 2000 --reps 1 --out DIR
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main():
    sys.path.insert(0, SRC)
    from credlab import cli, harness

    def first_replication(*args, **kwargs):
        sys.stdout.write(f"{time.time()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    harness.observe = first_replication
    code = cli.main(sys.argv[1:])
    sys.exit(f"setup probe: no replication started (exit code {code})")


if __name__ == "__main__":
    main()
