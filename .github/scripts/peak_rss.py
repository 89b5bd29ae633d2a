"""Run a command under a timeout and fail unless it exits 0 below a peak
resident set size.

    python peak_rss.py SECONDS MAX_MB COMMAND [ARG ...]

The command's stdout is discarded.  Prints the command, its exit code and
its peak RSS in MB (of the largest process it waited for), and exits 0
only when the command exited 0 with a peak under MAX_MB.
"""

import resource
import subprocess
import sys

seconds, max_mb, *command = sys.argv[1:]
code = subprocess.run(["timeout", seconds, *command], stdout=subprocess.DEVNULL).returncode
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{' '.join(command)} exit {code}, peak RSS {peak_mb:.0f} MB")
sys.exit(0 if code == 0 and peak_mb < float(max_mb) else 1)
