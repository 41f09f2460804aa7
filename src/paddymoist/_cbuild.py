"""Building and caching the package's C shared objects.

The one compile path of the package: :mod:`.ann` builds its generated
train and series loops here, one object per network shape, :mod:`.ingest`
its station-file scanner and :mod:`.hydro` its weather and bucket loops.
Each caller hands over its C source, a name prefix and any further link
inputs, and gets the path of a shared object it loads with ``ctypes``.  All
are compiled by the system C compiler ``cc`` under one set of flags,
:data:`CFLAGS`; the :mod:`.ann` docstring says why each of them keeps the
kernel's bits.  The scanner parses numbers with ``strtod`` alone, which no
flag changes.  A link input, such as numpy's ``libnpyrandom.a`` that
:mod:`.hydro` draws its random numbers from, is passed after ``-x none``,
so ``cc`` links it as it is, uncompiled: its code keeps the flags numpy
built it with.

The shared object is cached under ``$XDG_CACHE_HOME/paddymoist`` (else
``~/.cache/paddymoist``), named by its prefix (``ann-``, ``ingest-`` or
``hydro-``) and the SHA-256 of the C source, the flags, the resolved
compiler path with its mtime and size, each link input's resolved path with
its mtime and size, and the platform.  So a cache hit starts no process, and
a new compiler or a numpy upgrade builds a new object.  A build is written
under a temporary name and moved into place, so a reader never loads a
partial file.  With no ``cc`` on ``PATH``, a missing link input, an
unwritable cache directory or a failed compile, :func:`shared_object` raises
``OSError`` and the caller runs its Python code instead.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path

# See the ann module docstring for why each flag keeps the kernel's bits.
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fno-math-errno", "-shared",
          "-fPIC")


def _file_id(path: str) -> "tuple[str, int, int]":
    """``path`` resolved, with its mtime and size; ``OSError`` if it is missing."""
    path = os.path.realpath(path)
    st = os.stat(path)
    return path, st.st_mtime_ns, st.st_size


def cache_key(source: str, flags: "tuple[str, ...]", compiler: str,
              inputs: "tuple[str, ...]" = ()) -> str:
    """SHA-256 naming what ``compiler`` (a resolved path) builds from ``source``
    and links with the files ``inputs``; ``OSError`` if one of them is missing."""
    import hashlib
    # flat, so that an object with no inputs keeps the key it had before inputs
    files = [field for path in (compiler, *inputs) for field in _file_id(path)]
    return hashlib.sha256(repr((source, flags, *files, sys.platform)).encode()).hexdigest()


def shared_object(prefix: str, source: str, inputs: "tuple[str, ...]" = ()) -> str:
    """Path of the shared object ``<prefix>-<key>.so`` built from ``source``
    and linked with the files ``inputs``, compiled on a cache miss.

    Raises ``OSError`` when there is no ``cc`` on ``PATH``, an input is
    missing, the cache directory cannot be written or the compiler fails.
    """
    import shutil
    found = shutil.which("cc")
    if found is None:
        raise FileNotFoundError("no C compiler 'cc' on PATH")
    directory = Path(os.path.expanduser(os.environ.get("XDG_CACHE_HOME") or "~/.cache"),
                     "paddymoist")
    path = directory / f"{prefix}-{cache_key(source, CFLAGS, found, inputs)}.so"
    if path.exists():
        return str(path)
    import subprocess  # only a cache miss starts a process
    import tempfile
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run([found, *CFLAGS, "-x", "c", "-", "-x", "none", *inputs, "-o", tmp,
                               "-lm"],
                              input=source, capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"{found} exited {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, path)  # readers never see a partly written object
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return str(path)
