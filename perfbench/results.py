"""Result files: environment stamp, run fingerprints and the file itself.

One JSON file per benchmark invocation, schema ``croopt-bench/1``:

``schema, workload, seed, seconds, trace, started_utc, environment, correct,
problems, attempted, failed, failures, rounds, metrics, spans, fingerprints``

``metrics`` maps a name to ``{"value", "unit"}``; ``spans`` is a list of
``{"parent", "name", "calls", "total_ns", "self_ns"}`` rows (empty when
untraced); ``fingerprints`` maps ``algorithm|function|D<dim>|seed`` to a hash
of that run's 100-point trace, its final best value and, where the run
happened in the benchmark process, its best solution.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import struct
from pathlib import Path

SCHEMA = "croopt-bench/1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_key(algorithm, benchmark, dimension, seed):
    return f"{algorithm}|{benchmark}|D{dimension}|{seed}"


def fingerprint(trace, final, solution=None):
    """Hash of a run's observable outcome, exact to the last bit."""
    digest = hashlib.sha256()
    for fe, best in trace:
        digest.update(struct.pack("<qd", int(fe), float(best)))
    digest.update(struct.pack("<d", float(final)))
    if solution is not None:
        digest.update(b"x")
        for value in solution:
            digest.update(struct.pack("<d", float(value)))
    return digest.hexdigest()[:32]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root):
    # Read the ref directly: a source checkout without .git has no commit.
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config layout differs across numpy releases
        return None


def environment(root, np):
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
    }


def span_rows(spans):
    return [
        {"parent": parent, "name": name, "calls": row[0], "total_ns": row[1],
         "self_ns": row[2]}
        for (parent, name), row in sorted(spans["table"].items())
    ]


def write(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
