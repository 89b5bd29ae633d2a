"""Run a command under a timeout and fail unless it exits with the
expected code (0 unless given) below a peak resident set size.

    python peak_rss.py [--exit CODE] SECONDS MAX_MB COMMAND [ARG ...]

The command's stdout is discarded.  Prints the command, its exit code and
its peak RSS in MB (of the largest process it waited for), and exits 0
only when the command exited with CODE with a peak under MAX_MB.
"""

import resource
import subprocess
import sys

args = sys.argv[1:]
expected = 0
if args[0] == "--exit":
    expected, args = int(args[1]), args[2:]
seconds, max_mb, *command = args
code = subprocess.run(["timeout", seconds, *command], stdout=subprocess.DEVNULL).returncode
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{' '.join(command)} exit {code}, peak RSS {peak_mb:.0f} MB")
sys.exit(0 if code == expected and peak_mb < float(max_mb) else 1)
