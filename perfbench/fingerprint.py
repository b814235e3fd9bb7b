"""The machine and source fingerprint recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np
    info = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> "int | None":
    """Thread count of the OpenBLAS library NumPy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit(root: Path) -> "str | None":
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha1(root: Path) -> str:
    """Digest of the library sources, for checkouts that are not git trees."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_fingerprint(root: Path) -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES")
                              * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_sha1": _source_sha1(root),
    }
