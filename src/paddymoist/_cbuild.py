"""Building, caching and loading the package's C shared objects.

The one compile and load path of the package: :mod:`.ann` loads its
generated train and series loops through :func:`load`, one object per
network shape, :mod:`.ingest` its CSV scanner and :mod:`.hydro` its
weather and bucket loops.  Each gets its functions typed for ``ctypes``, or
None, on which it runs its Python code.  All are compiled by the system C
compiler ``cc`` under one set of flags, :data:`CFLAGS`.  A link input, such
as numpy's ``libnpyrandom.a`` that :mod:`.hydro` draws from, is passed after
``-x none``, so ``cc`` links it as it is: its code keeps numpy's flags.

The shared object is cached under ``$XDG_CACHE_HOME/paddymoist`` (else
``~/.cache/paddymoist``), named by its prefix (``ann-``, ``ingest-`` or
``hydro-``) and the SHA-256 of the C source, the flags, the resolved
compiler path with its mtime and size, each link input's resolved path with
its mtime and size, and the platform.  So a cache hit starts no process, and
a new compiler or a numpy upgrade builds a new object.  A build is written
under a temporary name and moved into place, so a reader never loads a
partial file.  With no ``cc`` on ``PATH``, a missing link input, an
unwritable cache directory, a failed compile or no ``ctypes``, :func:`load`
logs one warning and returns None.

Every C function loaded here keeps one contract.  It gets complete input.
It returns the number of rows it wrote (for the train loop, the pattern
visits it made), >= 0, or -1 where it declines, whether for a fault or for
input it does not handle, and passes nothing else back.  On -1 its Python
caller runs the Python reference on the same input, and the reference
returns the result or raises its own error: only the reference names a
fault, so its message is written in one place.
"""

from __future__ import annotations

import contextlib
import logging
import os
import sys
from pathlib import Path

# The C loops do the Python loops' IEEE double operations in the same order,
# and gcc/clang keep it that way under these flags:
# - -O2 optimises without the value-changing transformations -Ofast would add;
# - -ffp-contract=off forbids fusing a * b + c into one FMA, which rounds once
#   where Python rounds twice;
# - -fno-fast-math forbids reassociating sums, treating -0.0 as 0.0 and
#   assuming no NaN (the gain rule must see a NaN, and the series loop's
#   isfinite an infinity);
# - -fno-math-errno lets the compiler treat the libm calls as free of side
#   effects, which the loops, never reading errno, allow.  It changes no
#   arithmetic: exp and cos are still libm's, not inlined, sqrt is correctly
#   rounded either way, and GCC calls the vector libmvec only under
#   fast-math, which -fno-fast-math keeps off;
# - -shared -fPIC make a library ctypes can load, and -lm links the same libm
#   whose functions math calls.
# The scanner's numbers are exact under any of them: its fast paths do one
# IEEE multiply or divide, or integer arithmetic, and strtod the rest.
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


def load(prefix: str, source: str, signatures: "dict[str, str]", warning: str,
         inputs: "tuple[str, ...]" = ()) -> "tuple | None":
    """The functions named in ``signatures``, in order, from the object
    :func:`shared_object` builds from ``source`` and ``inputs``; None where it
    cannot be built or loaded, after logging ``"<warning>: <reason>"`` to the
    ``paddymoist.<prefix>`` logger.  ``ctypes`` is imported here, so a process
    that loads nothing never imports it.

    A signature is the result type and then each argument's type, one
    ``struct`` letter each: ``i`` int, ``l`` long, ``d`` double, ``P``
    pointer.  Any other letter raises ``KeyError``.
    """
    try:
        import ctypes
        lib = ctypes.CDLL(shared_object(prefix, source, inputs))
    except (OSError, ImportError) as exc:
        logging.getLogger(f"paddymoist.{prefix}").warning("%s: %s", warning, exc)
        return None
    types = dict(zip("ildP", (ctypes.c_int, ctypes.c_long, ctypes.c_double, ctypes.c_void_p)))
    functions = tuple(map(lib.__getitem__, signatures))
    for fn, letters in zip(functions, signatures.values()):
        fn.restype, *fn.argtypes = [types[letter] for letter in letters]
    return functions
