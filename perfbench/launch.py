"""Run one command; print its exit code, wall time and peak memory as JSON.

    python3 perfbench/launch.py TIMEOUT_S LOG_PATH COMMAND...

Wall time runs from spawn to exit. Peak resident memory comes from
`os.wait4`. The command is started from this small process rather than
from the benchmark itself, because a child's high-water mark starts at
its parent's resident size, and the benchmark holds the reference
arrays. A command still running after TIMEOUT_S is killed and its exit
code reported as null.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    timeout, log_path, command = float(argv[0]), argv[1], argv[2:]
    timed_out = threading.Event()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"exit": None if timed_out.is_set() else proc.returncode,
                      "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
