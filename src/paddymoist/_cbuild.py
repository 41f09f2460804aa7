"""Building and caching the package's C shared objects.

The one compile path of the package: :mod:`.ann` builds its generated
train and series loops here, one object per network shape, and
:mod:`.ingest` its station-file scanner.  Each caller hands over its C
source and a name prefix, and gets the path of a shared object it loads
with ``ctypes``.  Both are compiled by the system C compiler ``cc`` under
one set of flags, :data:`CFLAGS`; the :mod:`.ann` docstring says why each
of them keeps the kernel's bits.  The scanner parses numbers with
``strtod`` alone, which no flag changes.

The shared object is cached under ``$XDG_CACHE_HOME/paddymoist`` (else
``~/.cache/paddymoist``), named by its prefix (``ann-`` or ``ingest-``) and
the SHA-256 of the C source, the flags, the resolved compiler path with its
mtime and size, and the platform, so a cache hit starts no process.  A
build is written under a temporary name and moved into place, so a reader
never loads a partial file.  With no ``cc`` on ``PATH``, an unwritable cache
directory or a failed compile, :func:`shared_object` raises ``OSError`` and
the caller runs its Python code instead.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path

# See the ann module docstring for why each flag keeps the kernel's bits.
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fno-math-errno", "-shared",
          "-fPIC")


def cache_key(source: str, flags: "tuple[str, ...]", compiler: str) -> str:
    """SHA-256 naming what ``compiler`` (a resolved path) builds from ``source``."""
    import hashlib
    st = os.stat(compiler)
    return hashlib.sha256(repr((source, flags, compiler, st.st_mtime_ns, st.st_size,
                                sys.platform)).encode()).hexdigest()


def shared_object(prefix: str, source: str) -> str:
    """Path of the shared object ``<prefix>-<key>.so`` built from ``source``,
    compiled on a cache miss.

    Raises ``OSError`` when there is no ``cc`` on ``PATH``, the cache
    directory cannot be written or the compiler fails.
    """
    import shutil
    found = shutil.which("cc")
    if found is None:
        raise FileNotFoundError("no C compiler 'cc' on PATH")
    directory = Path(os.path.expanduser(os.environ.get("XDG_CACHE_HOME") or "~/.cache"),
                     "paddymoist")
    path = directory / f"{prefix}-{cache_key(source, CFLAGS, os.path.realpath(found))}.so"
    if path.exists():
        return str(path)
    import subprocess  # only a cache miss starts a process
    import tempfile
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run([found, *CFLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                              input=source, capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"{found} exited {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, path)  # readers never see a partly written object
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return str(path)
