"""Run identity and machine block printed with every benchmark run.

Everything here only reads: the BLAS thread count is reported as found,
never set.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def run_identity(argv: list[str], args, root: Path) -> dict:
    return {
        "argv": list(argv),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "src_sha256": source_hash(root / "src" / "fbmecon"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "machine": _machine(),
    }


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # a plain source checkout
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_hash(pkg: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        digest.update(path.relative_to(pkg).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_info() -> dict:
    info: dict = {"env": {k: os.environ.get(k) for k in _THREAD_ENV}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (TypeError, KeyError, AttributeError):
        info["name"] = info["version"] = None
    info["library"], info["threads"] = _blas_threads()
    return info


def _blas_threads() -> tuple[str | None, int | None]:
    """The loaded BLAS library and its thread count, queried read-only."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None, None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _BLAS_THREAD_GETTERS:
            getter = getattr(handle, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return lib, int(getter())
    return (libs[0] if libs else None), None


def _machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({k: (idx / k).read_text().strip() for k in ("level", "type", "size")})
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor() or None,
        "caches": caches,
        "platform": platform.platform(),
    }
