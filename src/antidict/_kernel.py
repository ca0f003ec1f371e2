"""Loader of the compiled kernels in ``_kernel.c``.

The C source is compiled on first use with the platform ``cc`` and loaded
through ctypes.  The shared library is cached in the package's
``__pycache__`` under a name made of a hash of the source and the
interpreter's cache tag, so an edited source or another interpreter builds
afresh and every later process loads the cached file.  The hash is the one
CPython checks hash-based ``.pyc`` files with (``importlib.util.source_hash``):
``hashlib`` would map OpenSSL, about 3.5 MiB of resident memory, into every
process that builds a suffix automaton.  Nothing compiles at install time or
at import; a missing or failing compiler raises ``ImportError`` carrying its
message.
"""

from __future__ import annotations

import ctypes
import os
import sys
import tempfile
from functools import cache
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")
# Largest state count the int32 tables of the kernel can number.
MAX_STATES = 2**31 - 1

# ndpointer checks dtype, rank and layout of every array passed
codes = np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS")
bounds = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
table = np.ctypeslib.ndpointer(np.int32, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
octets = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS")
bitmap = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
triples = np.ctypeslib.ndpointer(np.int32, ndim=2, flags="C_CONTIGUOUS")
# A bytes object goes in as c_char_p, a pointer to its own buffer.  An
# np.frombuffer view of it through ndpointer instead, in MfwSet.from_json,
# raised perfbench's dna peak_rss_mb (--rss-only child, seeds 101-106)
# to 5.59-6.25 MiB on four seeds of six, against 4.83-5.25 with c_char_p
# and 4.85-5.42 before shortlex_run existed.
text = ctypes.c_char_p
int32, int64 = ctypes.c_int32, ctypes.c_int64
# Every function _kernel.c exports, with its argument and result types.
SIGNATURES = (
    ("suffix_automaton", [codes, int64, int32, table], int32),
    ("factor_classes", [table, int64, int32, int64, int32, table], int32),
    ("forbidden_sites", [codes, int64, int32, int32, int64, table], int64),
    ("spell_sites", [octets, int64, triples, int64, octets, int32, bitmap], None),
    ("shortlex_run", [text, int64, int64, text, int64], int64),
    ("mf_automaton", [table, int64, int32, int64, table], int64),
    ("least_rotation", [codes, int64], int64),
    ("trie_size", [codes, bounds, int64], int64),
    ("trie", [codes, bounds, int64, int32, table, bitmap], None),
    ("avoidance", [table, int64, int32, octets, table, table], int32),
    ("walk", [codes, int64, int32, octets, table], int64),
)


def build(cache_dir: Path) -> ctypes.CDLL:
    """The kernel library in ``cache_dir``, compiled there first if absent.

    The compiler writes to a temporary name that is then renamed into place,
    so a process racing this one loads either nothing or a whole file.  A
    fresh build then removes the libraries of older sources built there for
    this interpreter; a cache hit removes nothing.
    """
    import subprocess
    from importlib.util import source_hash

    digest = source_hash(SOURCE.read_bytes()).hex()
    tag = sys.implementation.cache_tag
    path = Path(cache_dir) / f"_kernel-{digest}.{tag}.so"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".so.tmp", dir=path.parent)
        os.close(fd)
        try:
            try:
                proc = subprocess.run(
                    ["cc", *CFLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True
                )
            except OSError as exc:
                raise ImportError(f"antidict needs a C compiler 'cc' on first use: {exc}") from None
            if proc.returncode != 0:
                raise ImportError(f"cc failed to build {SOURCE.name}:\n{proc.stderr}")
            os.replace(tmp, path)
            for stale in path.parent.glob(f"_kernel-*.{tag}.so"):
                if stale != path:
                    stale.unlink(missing_ok=True)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    for name, argtypes, restype in SIGNATURES:
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


@cache
def kernel() -> ctypes.CDLL:
    """The kernel library of this package, built once per source and
    interpreter, loaded once per process."""
    return build(Path(__file__).parent / "__pycache__")
