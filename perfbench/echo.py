"""The UDP echo responder ``live_burst`` replays against.

It answers like the program's ``LiveUdpEchoServer`` (the query with QR
set) from its own process, so the replay tree is the measured
bottleneck.  Its socket asks for a 4 MB receive buffer: with the
default ~200 KB, a few tens of milliseconds in which the host does not
schedule the echo process overflow the buffer during a burst, and the
run then reports lost queries that say nothing about the replay tree.

The responder is this file run as a script (``python3 echo.py``), a
single child process and nothing else: it prints its address on
standard output and exits as soon as its standard input reaches end of
file.  ``EchoProcess.stop`` closes that pipe and waits for the child;
if the benchmark itself dies, the kernel closes the pipe and the child
still exits on its own.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys

RECEIVE_BUFFER = 4 << 20
_START_TIMEOUT = 30.0
_STOP_TIMEOUT = 5.0


def serve() -> None:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RECEIVE_BUFFER)
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sys.stdout.write(f"{host} {port}\n")
        sys.stdout.flush()
        control = sys.stdin.fileno()
        while True:
            readable, _, _ = select.select([sock, control], [], [])
            if control in readable and not os.read(control, 4096):
                return
            if sock not in readable:
                continue
            data, peer = sock.recvfrom(65535)
            if len(data) < 12:
                continue
            reply = bytearray(data)
            reply[2] |= 0x80  # QR
            sock.sendto(reply, peer)
    finally:
        sock.close()


class EchoProcess:
    def __init__(self):
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self._process.stdout], [], [],
                                        _START_TIMEOUT)
            if not ready:
                raise RuntimeError("echo process did not start")
            host, port = self._process.stdout.readline().split()
            self.address = (host.decode(), int(port))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Close the echo's stdin, wait for it to exit; kill if stuck."""
        process = self._process
        try:
            process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


if __name__ == "__main__":
    serve()
