"""Small launcher process that starts the benchmark's jobs and times them.

Linux carries the peak RSS of the process that forks a child into the
child's ru_maxrss, so a job started straight from run.py (which holds
jsonschema and multi-MB payloads) would report run.py's peak instead of its
own.  This launcher stays at the size of a bare interpreter, below every job.

Protocol: one JSON request per stdin line, {"argv": [...], "out": path,
"err": path}; one JSON reply per stdout line, {"wall_s": .., "code": ..,
"maxrss_kb": ..}.  The job's stdout and stderr go to the two files; wall_s runs
from spawn to exit.  The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

JOB_TIMEOUT_S = 150.0  # a single job takes at most ~10 s; this only stops a hung one


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
