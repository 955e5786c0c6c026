"""Starts the benchmark's `python -m mobitrace.cli` children and times them.

The benchmark starts this process first, while it is still small. Linux
carries a process's peak RSS across exec into the new program's
ru_maxrss, so a child spawned straight from the benchmark, which holds the
generated inputs, would report the benchmark's memory as its own. Children
spawned from here report their own peak.

A second instance runs the calibration loop: a fixed piece of pure-Python
work, the same for every version of mobitrace, whose time stands for the
host's speed at the moment (README.md, "Host-speed scaling"). It runs in
its own instance because its heap would raise the peak RSS that the
children of this one inherit.

Protocol: one JSON request per line on stdin. {"argv": [...], "log": path}
runs a child with stdout discarded and stderr appended to `log`, and
replies {"code", "wall_s", "rss_kib", "cpu_s"}. {"calibrate": n} runs the
calibration loop n times and replies {"calib_s": [...]}. The process exits
at end of input; on SIGTERM it kills the running child, waits for it, and
exits.
"""

import json
import os
import random
import signal
import sys
import time

CALIB_RECORDS = 6000


def calibration_lines() -> list:
    """Trace-like JSON lines of 20 samples each, the same on every run."""
    rng = random.Random(7)
    return [json.dumps({"record_id": f"r{i:06d}", "t": i * 7200, "cell": f"c{i % 7}", "technology": "LTE",
                        "samples": {"interval_ms": 500,
                                    "values": [round(rng.uniform(1, 90), 3) for _ in range(20)]}})
            for i in range(CALIB_RECORDS)]


def calibrate(lines) -> float:
    """Wall time of one pass of decode, per-record statistics and encode,
    the kinds of work the mobitrace stages do, over a heap of a few MB."""
    start = time.perf_counter()
    rows = []
    for obj in [json.loads(line) for line in lines]:
        values = obj["samples"]["values"]
        median = sorted(values)[len(values) // 2]
        windows = [sum(values[i:i + 5]) / 5 for i in range(0, len(values), 5)]
        rows.append({"record_id": obj["record_id"], "median": median, "windows": windows,
                     "ok": min(windows) > 0.5 * median})
    "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return time.perf_counter() - start


def run(argv, log):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
    ]
    cmd = [sys.executable, "-m", "mobitrace.cli", *argv]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "rss_kib": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main():
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    lines = None
    for line in sys.stdin:
        request = json.loads(line)
        if "calibrate" in request:
            lines = lines or calibration_lines()
            reply = {"calib_s": [calibrate(lines) for _ in range(request["calibrate"])]}
        else:
            reply = run(request["argv"], request["log"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
