"""Server host process: runs one workload's topology until told to quit.

    python3 perfbench/server.py CONFIG_JSON

The load generator writes CONFIG_JSON (workload name, generated inputs,
data directory, trace flag, ready-file path) and starts this process.
Once the topology serves, the ready file is written atomically with the
bound port, the process ids of every server process, and whatever the
workload reports (the store's tuple ids).  A line on stdin, or EOF,
drains and closes the topology.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if config["trace"]:
        from perfbench.layers import install

        install()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[config["workload"]]
    os.makedirs(config["directory"], exist_ok=True)
    address, close, extra = workload.serve(
        config["inputs"], config["directory"], config["trace"]
    )
    try:
        pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
        ready = {"host": address[0], "port": address[1], "pids": pids, **extra}
        temporary = config["ready"] + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(ready, handle)
        os.replace(temporary, config["ready"])
        sys.stdin.readline()
    finally:
        close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
