"""Starts the benchmark's child processes from a process that stays small.

    python3 perfbench/launcher.py FD

Linux folds the RSS high-water mark of the process that forks a child into
that child's ``ru_maxrss``. The benchmark process holds expected values and
outputs, so children it started itself would report its RSS when that is
larger than their own. This launcher holds nothing: for each request read
from the socket ``FD`` it starts the command with the stdout and stderr pipes
passed along with the request, waits for it, and replies with its seconds
from spawn to exit, its own max RSS and its exit status. It first replies
with the child's pid, so the caller can kill a child that runs too long.
"""

import json
import os
import socket
import subprocess
import sys
import time


def serve(sock: socket.socket) -> None:
    """One request per message on a SOCK_SEQPACKET socket, until it closes."""
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not message:
            return
        request = json.loads(message)
        out, err = fds
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(request["cmd"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        finally:
            os.close(out)
            os.close(err)
        sock.send(json.dumps({"pid": proc.pid}).encode())
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        sock.send(json.dumps({"seconds": seconds, "rss_kib": usage.ru_maxrss,
                              "exit_code": os.waitstatus_to_exitcode(status)}).encode())


if __name__ == "__main__":
    serve(socket.socket(fileno=int(sys.argv[1])))
