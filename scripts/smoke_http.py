"""HTTP helpers shared by the smoke scripts that boot ``repro serve``
as a subprocess (``serve_smoke.py``, ``obs_smoke.py``); each script
imports this module from its own directory."""

import http.client
import re
import time


def get(port, url, headers=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", url, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def wait_for_server(proc, boot_timeout=60):
    """Read the listening banner, then poll ``/healthz`` with bounded
    retries — failing fast with the child's output if the server dies
    during boot instead of hanging until the timeout."""
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=10)
        raise AssertionError(
            f"server exited before its banner (rc={proc.returncode})"
        )
    print(f"[server] {line.rstrip()}")
    match = re.search(r"http://[\d.]+:(\d+)", line)
    assert match, f"no listening banner in: {line!r}"
    port = int(match.group(1))
    deadline = time.time() + boot_timeout
    attempt = 0
    last_error = "no probe ran"
    while time.time() < deadline:
        if proc.poll() is not None:
            tail = (proc.stdout.read() or "").strip()
            raise AssertionError(
                f"server died during boot (rc={proc.returncode}): {tail}"
            )
        attempt += 1
        try:
            status, _, _ = get(port, "/healthz", timeout=5)
            if status == 200:
                return port
            last_error = f"/healthz -> {status}"
        except OSError as exc:
            last_error = repr(exc)
        time.sleep(min(0.05 * attempt, 1.0))
    raise AssertionError(
        f"server never became healthy: {attempt} probes over "
        f"{boot_timeout}s (last: {last_error})"
    )
