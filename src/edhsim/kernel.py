"""Build and load the compiled kernel, ``kernel.c``: the binner stepping
rules behind :mod:`edhsim.binner`, every level of
:func:`edhsim.histogrammer.hedh` in one call, the counts of
:func:`edhsim.histogrammer.ewh`, the pulse CDF behind
:func:`edhsim.transient.build_transient`, and the random draws and photon
placement behind :func:`edhsim.transient.sample_stream`, which replay
numpy's PCG64 ``Generator`` draw for draw.

The library is compiled on first use with the C compiler Python was built
with (``sysconfig``'s ``CC``), so a C compiler is a run-time requirement; it
must have ``unsigned __int128`` for PCG64's 128-bit state, as gcc and clang
do on 64-bit targets. It is cached under ``$XDG_CACHE_HOME/edhsim``
(default ``~/.cache/edhsim``) in a file named by the SHA-256 of the source,
the compile command and the interpreter's extension suffix; a later run, or
an edited source, finds its own file. Each build writes a temporary file and
renames it into place, so two processes building at once both end with a
whole library. A build, and never a load, then deletes all but the
:data:`KEEP` most recently modified libraries in the cache, so two trees
that take turns keep each other's.

``-O3`` lets GCC vectorize the loops it can (GCC 12 does not at ``-O2``); a
vectorized loop does each element's operations in the source's order, one
rounding each, so the bits do not change. The bank's wide path
(``edh_optimized_bank``) is written once with GCC's vector types and built
at each width: on x86-64 for AVX-512 (8 doubles a register), for AVX2 (4)
and for baseline x86-64 (2), elsewhere at 2 only. The library's constructor
runs once per process, as :func:`library` loads the library, and picks the
widest instance that this CPU has; everything else is built once, for
baseline x86-64. So :data:`FLAGS` holds no ``-m`` flag: an ``-mavx2`` there
would let GCC use AVX2 in every function, and the library would die with
SIGILL on a CPU without it. One library and one cache key serve every kind
of CPU.

``-ffp-contract=off`` stops the compiler from fusing ``a*b + c`` into one
rounding (GCC does by default where the target has FMA). AVX-512 brings FMA
with it, so this flag is what keeps the bank's 8-lane instance at the
search path's roundings. ``-ffast-math`` is never passed: either would
change the bits that the tests' reference loops for each stepping rule, the
sampler's numpy reference (numpy's own draws) and ``scipy.special.ndtr``
pin. The ``fma()`` that ``ewh``'s counts
call by name is an exact sign test, not a contraction, and needs no flag.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from .errors import KernelBuildError

SOURCE = Path(__file__).with_name("kernel.c")
COMPILER = shlex.split(sysconfig.get_config_var("CC") or "cc")
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
KEEP = 8  # libraries a build leaves in the cache, its own among them


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "edhsim"


def build() -> Path:
    """Path of the compiled kernel, compiling it if no cached copy exists.

    Raises:
        KernelBuildError: if the cache directory cannot be written or the
            compile command fails; the message names the command.
    """
    source = SOURCE.read_bytes()
    command = [*COMPILER, *FLAGS]
    key = hashlib.sha256(b"\0".join([source, *map(str.encode, command), SUFFIX.encode()]))
    out = cache_dir() / f"kernel-{key.hexdigest()[:32]}{SUFFIX}"
    if out.is_file():
        return out
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=SUFFIX, dir=out.parent)
    except OSError as e:
        raise KernelBuildError(f"cannot write the kernel cache {out.parent}: {e}") from None
    os.close(fd)
    command += ["-o", tmp, str(SOURCE), "-lm"]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
        os.replace(tmp, out)
    except (OSError, subprocess.CalledProcessError) as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        detail = getattr(e, "stderr", None) or e
        raise KernelBuildError(
            f"building the compiled kernel failed: {shlex.join(command)}: {detail}") from None
    try:
        libraries = sorted(out.parent.glob("kernel-*"), key=lambda path: path.stat().st_mtime_ns)
        for path in libraries[:-KEEP]:
            path.unlink(missing_ok=True)
    except OSError:
        pass  # another build pruned first, or the cache is read-only: the next build prunes
    return out


def _doubles(writeable=False):
    return np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS" + (",W" if writeable else ""))


def _int64s(writeable=False):
    return np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS" + (",W" if writeable else ""))


def _uint64s(writeable=False):
    return np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS" + (",W" if writeable else ""))


@functools.cache
def library() -> ctypes.CDLL:
    """The loaded kernel, with every function's argument and result types
    declared; built (see :func:`build`) on the first call in a process."""
    lib = ctypes.CDLL(str(build()))
    i64, f64 = ctypes.c_int64, ctypes.c_double
    lib.edh_optimized_bank.restype = None
    lib.edh_optimized_bank.argtypes = [
        _doubles(), _int64s(), i64, i64, f64, f64, f64, f64, i64, _doubles(), i64,
        i64, _doubles(), f64, _doubles(True), _doubles(True), _doubles(True),
    ]
    lib.edh_fixed_walk.restype = ctypes.c_int
    lib.edh_fixed_walk.argtypes = [
        _doubles(), _int64s(), i64, i64, _doubles(), i64, f64, _doubles(True), f64, f64,
    ]
    lib.edh_hedh.restype = ctypes.c_int
    lib.edh_hedh.argtypes = [
        _doubles(), _int64s(), _int64s(), i64, f64, f64, _doubles(True), _doubles(True),
    ]
    lib.edh_ewh_counts.restype = None
    lib.edh_ewh_counts.argtypes = [_doubles(), i64, f64, i64, _int64s(True)]
    lib.edh_poisson_offsets.restype = ctypes.c_int
    lib.edh_poisson_offsets.argtypes = [f64, i64, _uint64s(True), _int64s(True)]
    lib.edh_sample_photons.restype = None
    lib.edh_sample_photons.argtypes = [
        _doubles(), i64, _int64s(), i64, _uint64s(True), _int64s(True), _doubles(True),
    ]
    lib.edh_place_photons.restype = i64
    lib.edh_place_photons.argtypes = [
        _doubles(), i64, _int64s(), i64, _doubles(), _doubles(), _int64s(True), _doubles(True),
    ]
    lib.edh_loggam.restype = None
    lib.edh_loggam.argtypes = [_doubles(), i64, _doubles(True)]
    lib.edh_ndtr.restype = None
    lib.edh_ndtr.argtypes = [_doubles(), i64, _doubles(True)]
    return lib
