"""Process-tree readings from ``/proc`` (no psutil): the descendants of
this process, their CPU seconds and the peak RSS of the Ray workers."""

from __future__ import annotations

import contextlib
import os
import signal
import time

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:  # the process exited meanwhile
        return None
    # the command name (field 2) may hold spaces; it ends at the last ')'
    return data[data.rindex(")") + 2 :].split()


def descendants(root: int | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None and fields[0] != "Z":
                children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def wait_gone(pids: list[int], stop, grace_s: float = 30.0) -> None:
    """Call ``stop`` (``ray.shutdown``, which does not wait) and wait until
    every process in ``pids`` has exited; SIGKILL any left after
    ``grace_s``, and give up after twice that.  The pids are taken before
    ``stop`` because a child orphaned during shutdown is no longer a
    descendant."""
    stop()
    deadline = time.monotonic() + grace_s
    while any(map(_alive, pids)) and time.monotonic() < deadline + grace_s:
        if time.monotonic() > deadline:
            for pid in filter(_alive, pids):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.1)


def tree_cpu_s() -> float:
    """CPU seconds (user + system) of this process and every live
    descendant, plus what reaped children left in this process."""
    total = 0.0
    for pid in [os.getpid()] + descendants():
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17 of stat
            total += sum(int(x) for x in fields[11:15])
    return total / _TICKS


def host_steal_s() -> float:
    """Seconds the hypervisor kept this VM's vCPUs from running, summed
    over vCPUs since boot (the ``steal`` column of ``/proc/stat``)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / _TICKS


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def worker_peak_rss_mb() -> float:
    """Largest ``VmHWM`` among the Ray worker processes under this one."""
    workers = [
        p
        for p in descendants()
        if _cmdline(p).startswith("ray::") or "default_worker.py" in _cmdline(p)
    ]
    return max((_vm_hwm_kb(p) for p in workers), default=0) / 1024
