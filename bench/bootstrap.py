"""Single-threaded BLAS and the checkout's own chebcap, before numpy loads;
and the host record every report file carries."""

import json
import os
import platform
import sys
from pathlib import Path

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parents[1] / "src"


def prepare() -> dict:
    """Pin BLAS/OpenMP to one thread and import chebcap from src/ of this
    checkout; exits non-zero when the sources are not there.  Call before
    anything imports numpy.  Returns the pinned thread settings."""
    for name in THREAD_ENV:
        os.environ[name] = "1"
    if not (SRC / "chebcap" / "__init__.py").is_file():
        sys.exit(f"bench: no chebcap sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import chebcap

    if Path(chebcap.__file__).resolve().parent != SRC / "chebcap":
        sys.exit(f"bench: imported chebcap from {chebcap.__file__}, not from {SRC}")
    return {name: os.environ[name] for name in THREAD_ENV}


def save(path, doc: dict) -> None:
    """Write a report as JSON, headed by the host and the pinned threads."""
    import numpy
    import chebcap

    host = {"machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "chebcap": chebcap.__version__,
            "threads": {name: os.environ.get(name) for name in THREAD_ENV}}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"host": host, **doc}, indent=1, default=str) + "\n")
