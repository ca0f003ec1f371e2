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

Every ndarray argument crosses through one checked converter,
:class:`Array`, which makes the checks ``np.ctypeslib.ndpointer`` made and
passes the array's address.  A member list crosses as one buffer of rank
units, one byte a rank or four big-endian bytes past 255 symbols, which
``trie_size`` scans once for the ``MfwSet`` order check and the trie alike.
On short inputs the crossings weigh more than the kernel work, so the
reconstructions cross few times: ``trie_size`` reads the members' ends off
that one buffer, ``walk`` completes the avoidance table itself before
walking it and counts as it goes what certifies the word it reads (the
words avoiding the members, or in its circular mode the paths into the
cycle it keeps), and ``factor_count`` builds a word's suffix automaton and
counts its factors in the same call.
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


class Array:
    """An ndarray argument of a kernel function, as ctypes converts it.

    It makes every check ``np.ctypeslib.ndpointer`` made, with the same
    ``TypeError`` and so the same ``ctypes.ArgumentError`` from the call:
    an ndarray, of this dtype and rank, C-contiguous and, for an output,
    writeable.  A writeable array crosses as a reference to a ``c_char``
    over its buffer, a read-only or empty one (which ``from_buffer``
    refuses) as a ``c_void_p`` of its address, which ``__array_interface__``
    gives at about twice the cost.  A call of ``trie_size`` with its two
    arrays took 2.5-3.0 us through this converter against 6.5-7.5 us
    through ndpointer, and 0.8-1.6 us with raw addresses (timeit, best of
    15, x86-64 Xeon, Python 3.11, numpy 2.4).
    """

    __slots__ = ("dtype", "ndim", "writeable", "flags")

    def __init__(self, dtype, ndim: int = 1, writeable: bool = False):
        self.dtype, self.ndim, self.writeable = np.dtype(dtype), ndim, writeable
        self.flags = ["C_CONTIGUOUS", "WRITEABLE"] if writeable else ["C_CONTIGUOUS"]

    def from_param(self, obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError("argument must be an ndarray")
        if obj.dtype != self.dtype:
            raise TypeError(f"array must have data type {self.dtype}")
        if obj.ndim != self.ndim:
            raise TypeError(f"array must have {self.ndim} dimension(s)")
        flags = obj.flags
        if not flags.c_contiguous or (self.writeable and not flags.writeable):
            raise TypeError(f"array must have flags {self.flags}")
        if flags.writeable and obj.size:
            return ctypes.byref(ctypes.c_char.from_buffer(obj))
        return ctypes.c_void_p(obj.__array_interface__["data"][0])


codes = Array(np.int32)
bounds = Array(np.int64, writeable=True)
table = Array(np.int32, writeable=True)
octets = Array(np.uint8)
bitmap = Array(np.uint8, writeable=True)
triples = Array(np.int32, ndim=2)
int32, int64 = ctypes.c_int32, ctypes.c_int64
# Every function _kernel.c exports, with its argument and result types.
SIGNATURES = (
    ("suffix_automaton", [codes, int64, int32, table], int32),
    ("factor_count", [codes, int64, int32, table], int64),
    ("factor_classes", [table, int64, int32, int64, int32, table], int32),
    ("forbidden_sites", [codes, int64, int32, int32, int64, table], int64),
    ("spell_sites", [octets, int64, triples, int64, octets, int32, bitmap], None),
    ("mf_automaton", [table, int64, int32, int64, table], int64),
    ("least_rotation", [codes, int64], int64),
    ("trie_size", [octets, int64, int64, int32, bounds], int64),
    ("trie", [octets, bounds, int64, int32, table, bitmap, table], None),
    ("avoidance", [table, int64, int32, octets, table, table], int32),
    ("walk", [table, int64, int32, octets, table, int32], int64),
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
