"""Run child processes for the cli-cold workload from a small, separate process.

A child's peak resident set, as the kernel reports it, includes the
memory of the process it was forked from until it executes the new
program.  The benchmark process holds fastreg and its own bookkeeping, so
its children would report the benchmark's size; this process imports
almost nothing.

Protocol: each stdin line is a JSON list (argv); each reply is a JSON
object with the child's wall time, exit status, output, and the largest
peak resident set of any child so far.  The process exits at end of input.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter

TIMEOUT_S = 60


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
            returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            returncode, stdout, stderr = None, "", "timed out after %d s" % TIMEOUT_S
        seconds = perf_counter() - t0
        reply = {
            "seconds": seconds,
            "returncode": returncode,
            "stdout": stdout,
            "stderr": stderr,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
