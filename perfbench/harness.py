"""Running one CLI request in a fresh process, and timing interpreter start-up.

Each request runs in a child forked from a parent that has imported
``pmlkit.cli`` and nothing of pmlkit has run yet, so every request
starts from the state a fresh ``pmlkit`` process has right after import:
no cache filled by an earlier request survives.  The child times
``pmlkit.cli.main(argv)`` itself, with stdout and stderr redirected to
files, and sends its timings (and, when traced, its span summary) back
through a pipe.  Start-up is not part of request latency; ``setup_s``
measures it with fresh interpreters.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import re
import subprocess
import sys
import time
from typing import Optional

import spans


@dataclasses.dataclass
class Outcome:
    code: int
    latency_s: float
    fork_s: float
    rss_kb: int
    trace: Optional[dict] = None
    error: Optional[str] = None


def _forked(fn) -> tuple:
    """Run ``fn()`` in a forked child and wait for it.

    Returns (ok, value, rusage): ``value`` is what ``fn`` returned, or,
    when ``ok`` is false, why the child failed.  The child sends its
    result back pickled through a pipe and ends with ``os._exit``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        status = 1
        try:
            data = pickle.dumps((True, fn()))
            status = 0
        except BaseException as exc:  # report anything to the parent, then exit
            data = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
        finally:
            while data:
                data = data[os.write(w, data):]
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        return False, f"child ended with status {status} and sent nothing", usage
    ok, value = pickle.loads(data)
    return ok, value, usage


def in_child(fn, *args):
    """Return ``fn(*args)`` computed in a forked child.

    The child's allocations never touch this process's heap, so the
    request processes forked later inherit an allocator in the state a
    fresh process has after import.
    """
    ok, value, _ = _forked(functools.partial(fn, *args))
    if not ok:
        raise RuntimeError(value)
    return value


def _request(argv, report_path: str, traced: bool, request_id: int, t_fork: float) -> dict:
    """The body of a request child: time ``pmlkit.cli.main(argv)``."""
    t_start = time.perf_counter()
    for fd, path in ((1, report_path), (2, report_path + ".err")):
        out = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(out, fd)
        os.close(out)
    tracer = spans.Tracer(request_id)
    if traced:
        tracer.install()
    cli = sys.modules["pmlkit.cli"]
    t0 = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    sys.stderr.flush()
    return {"fork_s": t_start - t_fork, "latency_s": time.perf_counter() - t0, "code": code,
            "trace": tracer.summary() if traced else None}


def run_request(argv, report_path: str, traced: bool = False, request_id: int = 0) -> Outcome:
    """Run ``pmlkit.cli.main(argv)`` in a forked child and wait for it."""
    t_fork = time.perf_counter()
    ok, payload, usage = _forked(functools.partial(
        _request, argv, report_path, traced, request_id, t_fork))
    if not ok:
        return Outcome(code=-1, latency_s=float("nan"), fork_s=float("nan"),
                       rss_kb=usage.ru_maxrss, error=payload)
    return Outcome(rss_kb=usage.ru_maxrss, **payload)


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)")


def spawn_import(src: str, env: dict, importtime: bool) -> tuple:
    """Wall time of a fresh interpreter running ``import pmlkit.cli``; with
    ``importtime``, also the summed self time (s) per top-level package."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", "import pmlkit.cli"]
    env = dict(env, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import pmlkit.cli failed: {proc.stderr.strip()[-500:]}")
    packages = {}
    for match in _IMPORTTIME.finditer(proc.stderr):
        root = match.group(2).split(".")[0]
        packages[root] = packages.get(root, 0.0) + int(match.group(1)) / 1e6
    return wall, packages
