"""The environment a benchmark result was measured in.

The BLAS thread counts are read from the libraries themselves through
ctypes: numpy and scipy each bundle their own scipy-openblas, and nothing
here sets a thread variable, so the count recorded is the one in effect.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
from pathlib import Path

import numpy
import scipy

_THREAD_ENV = re.compile(r"THREAD|^OMP_|BLAS|^MKL_")
_BLAS_SYMBOLS = ("scipy_openblas{}64_", "scipy_openblas{}")  # numpy: ILP64 suffix


def _bundled_blas(package) -> Path | None:
    """The OpenBLAS shared library shipped in ``<package>.libs``."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    found = sorted(libs.glob("lib*openblas*.so*")) if libs.is_dir() else []
    return found[0] if found else None


def _blas_call(lib, stem: str, restype):
    for pattern in _BLAS_SYMBOLS:
        name = pattern.format(stem)
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_info(package) -> dict:
    """Vendor and version from the build record, thread count and config measured."""
    deps = package.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"vendor": blas.get("name"), "version": blas.get("version")}
    path = _bundled_blas(package)
    if path is None:
        info.update(library=None, threads=None, config=None)
        return info
    lib = ctypes.CDLL(str(path))
    config = _blas_call(lib, "_get_config", ctypes.c_char_p)
    info.update(
        library=path.name,
        threads=_blas_call(lib, "_get_num_threads", ctypes.c_int),
        config=config.decode() if config else None,
    )
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from its ``.git`` directory if it has one."""
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


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": {"version": numpy.__version__, "blas": blas_info(numpy)},
        "scipy": {"version": scipy.__version__, "blas": blas_info(scipy)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if _THREAD_ENV.search(k)},
        "git_commit": _git_commit(root),
    }
