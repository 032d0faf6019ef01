"""Shared pieces: statistics, /proc readers, the ``repro serve`` subprocess, checks."""

from __future__ import annotations

import http.client
import math
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPSILON = 1.0
SETUP_REPEATS = 3
HOST = "127.0.0.1"


def derive_seed(*parts: int) -> int:
    """An rng seed derived from the run's seed and a purpose tag."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With fewer than 20 samples that percentile would sit at or below the
    median, so the median itself is reported (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return median(ordered), 50.0
    k = n - 11  # exactly ten samples rank above index k
    return float(ordered[k]), 100.0 * (k + 1) / n


def timing(values, unit_scale: float = 1.0) -> dict:
    """Median and tail of a sample, with the sample count behind them."""
    scaled = [v * unit_scale for v in values]
    tail_value, tail_pct = tail(scaled)
    return {"p50": median(scaled), "tail": tail_value, "tail_pct": tail_pct, "n": len(scaled)}


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a process has consumed so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


@dataclass
class Tally:
    """Operations attempted and failed; every failed check is named."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Post:
    """One keep-alive HTTP/1.1 connection POSTing request bodies."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self.conn = http.client.HTTPConnection(HOST, port, timeout=timeout)

    def __call__(self, path: str, body: bytes, content_type: str) -> tuple[int, bytes]:
        """(status, body); a socket error reconnects and reports status 0."""
        try:
            self.conn.request("POST", path, body=body, headers={"Content-Type": content_type})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            self.conn = http.client.HTTPConnection(HOST, self.port, timeout=self.timeout)
            return 0, repr(exc).encode()

    def get(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class ServeProcess:
    """``repro serve`` in a subprocess, started through the package's CLI."""

    def __init__(self, root: Path, store: Path, *, cache: int, workdir: Path) -> None:
        self.port = free_port()
        tmp = workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(tmp)  # the server's metrics slabs stay in the checkout
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--port", str(self.port), "--workers", "1", "--cache", str(cache), "--quiet"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=str(root),
        )
        self.pid = self.proc.pid
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            conn = http.client.HTTPConnection(HOST, self.port, timeout=5.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def bits_equal(a, b) -> bool:
    """Bit-for-bit equality of two float64 answer vectors."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def ledger_exact(accountant, epsilon: float) -> bool:
    """The accountant's ledger entries sum to exactly ``epsilon``."""
    return math.fsum(eps for _, eps in accountant.ledger) == epsilon
