"""Loading the package's C shared objects: typing, giving up, and the one
module that imports ``ctypes``."""

import ctypes
import logging
import re
import shutil
import sys
from pathlib import Path

import pytest

from paddymoist import _cbuild

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc' on PATH")

SOURCE = """
int twice(int a) { return 2 * a; }
long fill(long n, double x, double *out)
{
    long i;
    for (i = 0; i < n; i++)
        out[i] = x * (double)i;
    return n - 1;
}
"""
SIGNATURES = {"twice": "ii", "fill": "lldP"}
WARNING = "probe runs in Python, its C did not build"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty cache directory in place of the user's."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "paddymoist"


@needs_cc
def test_load_types_each_function(cache_dir):
    twice, fill = _cbuild.load("probe", SOURCE, SIGNATURES, WARNING)
    assert (twice.restype, twice.argtypes) == (ctypes.c_int, [ctypes.c_int])
    assert (fill.restype, fill.argtypes) == (ctypes.c_long,
                                             [ctypes.c_long, ctypes.c_double, ctypes.c_void_p])
    assert twice(-21) == -42
    out = (ctypes.c_double * 3)()
    assert fill(3, 0.5, out) == 2 and list(out) == [0.0, 0.5, 1.0]
    (built,) = [p.name for p in cache_dir.iterdir()]
    assert built.startswith("probe-") and built.endswith(".so")


@needs_cc
@pytest.mark.parametrize("letters", ["ldz", "vldP", "lldf"])
def test_unknown_letter_raises(cache_dir, letters):
    with pytest.raises(KeyError):
        _cbuild.load("probe", SOURCE, {"twice": "ii", "fill": letters}, WARNING)


@pytest.mark.parametrize("broken", ["no cc on PATH", "compile error", "no ctypes"])
def test_gives_up_with_one_warning(broken, cache_dir, tmp_path, monkeypatch, caplog):
    source = SOURCE
    if broken == "no cc on PATH":
        monkeypatch.setenv("PATH", str(tmp_path))
    elif broken == "compile error":
        if shutil.which("cc") is None:
            pytest.skip("no C compiler 'cc' on PATH")
        source = "this is not C\n"
    else:
        monkeypatch.setitem(sys.modules, "ctypes", None)
    with caplog.at_level(logging.WARNING, logger="paddymoist"):
        assert _cbuild.load("probe", source, SIGNATURES, WARNING) is None
    assert [(r.name, r.levelno) for r in caplog.records] == [("paddymoist.probe",
                                                              logging.WARNING)]
    assert caplog.records[0].getMessage().startswith(WARNING + ": ")
    assert not cache_dir.exists() or list(cache_dir.iterdir()) == []


def test_only_cbuild_imports_ctypes():
    imports = re.compile(r"^\s*(import|from)\s+ctypes\b", re.M)
    package = Path(_cbuild.__file__).parent
    importing = sorted(path.name for path in package.glob("*.py")
                       if imports.search(path.read_text(encoding="utf-8")))
    assert importing == ["_cbuild.py"]
