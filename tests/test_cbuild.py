"""Loading the package's C shared objects: typing, giving up, the one
module that imports ``ctypes``, and the contract every loaded C function
keeps."""

import csv
import ctypes
import logging
import math
import re
import shutil
import subprocess
import sys
from array import array
from datetime import date
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from paddymoist import _cbuild, ann, hydro, ingest
from paddymoist.evapo import ra_table

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
@pytest.mark.parametrize("source", [
    lambda: ann._c_source(3, 8, 1), lambda: ann._c_source(4, 8, 1),
    lambda: ann._c_source(4, 8, 3), lambda: hydro._C_SOURCE,
    lambda: ingest._SCAN_SOURCE.replace("@POW5@", ingest._powers_of_five())
    .replace("@RYU@", ingest._ryu_tables()),
], ids=["ann-3-8-1", "ann-4-8-1", "ann-4-8-3", "hydro", "ingest"])
def test_generated_c_compiles_without_a_warning(tmp_path, source):
    """Each C source the package builds, under its flags, with every warning
    of -Wall -Wextra an error."""
    done = subprocess.run(["cc", *_cbuild.CFLAGS, "-c", "-Wall", "-Wextra", "-Werror",
                           "-x", "c", "-", "-o", str(tmp_path / "probe.o")],
                          input=source(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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


def _addresses(*buffers) -> list:
    return [b.buffer_info()[0] for b in buffers]


def _doubles(n: int) -> array:
    return array("d", bytes(8 * n))


@needs_cc
class TestContract:
    """Each of the package's six C functions, called directly, returns the
    rows it wrote for sound input and -1 for a fault, and nothing else."""

    TOPO = ann.MlpTopology(2, 3, 1)

    @pytest.fixture
    def ann_loops(self):
        kernel = ann._c_kernel(self.TOPO)
        assert kernel is not None
        return kernel[0].args[0], kernel[2].args[0]  # the ctypes functions

    @pytest.fixture
    def hydro_loops(self):
        loops = hydro._c_loops()
        if loops is None:
            pytest.skip("the C weather and bucket loops did not build")
        return loops

    def test_ann_train_loop(self, ann_loops):
        train_loop = ann_loops[0]

        def run(rows, epochs=3):
            weights = array("d", [0.1] * 9), array("d", [0.2] * 4), array("d", [1.0])
            flat = array("d", chain.from_iterable(rows))
            losses, visits = _doubles(epochs), _doubles(2 * epochs * len(rows))
            return train_loop(*_addresses(*weights, flat), len(rows), 0.2, epochs,
                              *_addresses(losses, visits))
        rows = [(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)]
        assert run(rows) == 6  # one row per pattern visit
        assert run([rows[0], (0.4, 0.5, math.nan)]) == -1

    def test_ann_series(self, ann_loops):
        series = ann_loops[1]

        def run(rows):
            wh, wo = array("d", [0.1] * 9), array("d", [0.2] * 4)
            flat, out = array("d", chain.from_iterable(rows)), _doubles(len(rows))
            lo, span = array("d", [0.0, 0.0]), array("d", [1.0, 1.0])
            return series(*_addresses(wh, wo), 1.0, flat.buffer_info()[0], len(rows),
                          *_addresses(lo, span), 0.0, 1.0, 0, None, out.buffer_info()[0])
        rows = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6), (0.7, 0.8)]
        assert run(rows) == 4
        assert run([*rows[:2], (0.5, math.inf), rows[3]]) == -1

    def test_hydro_weather(self, hydro_loops):
        weather = hydro_loops[0]

        def run(tavg_mean):
            bits = np.random.default_rng(1).bit_generator
            out = [_doubles(10) for _ in range(4)]
            with bits.lock:
                return weather(bits.ctypes.bit_generator, 10, date(2011, 1, 5).toordinal(),
                               tavg_mean, 0.5, 10.0, 0.5, 15.0, *_addresses(*out))
        assert run(24.0) == 10
        assert run(math.inf) == -1  # tmax is not finite

    def test_hydro_truth(self, hydro_loops):
        truth = hydro_loops[1]

        def run(tmin):
            n = len(tmin)
            inputs = [array("d", [30.0] * n), array("d", [25.0] * n), array("d", tmin),
                      array("l", range(734000, 734000 + n)), array("d", [1.0] * n),
                      _doubles(n), array("d", [1.05] * n), array("d", ra_table(-0.12)),
                      array("d", [0.2, 0.55, 0.15, 0.45, 0.52, 3.0])]
            out = [_doubles(n) for _ in range(5)]
            return truth(n, *_addresses(*inputs, *out))
        assert run([20.0, 20.0, 20.0]) == 3
        assert run([20.0, 31.0, 20.0]) == -1  # tmin above tmax

    @pytest.fixture
    def ingest_functions(self):
        functions = ingest._scanner()
        if functions is None:
            pytest.skip("the C station-file scanner did not build")
        return functions

    def test_ingest_scan(self, ingest_functions):
        scan = ingest_functions[0]

        def run(text, room=10, last=(0, 0)):
            columns = [array("l", bytes(8 * room)) for _ in range(2)]
            columns += [_doubles(room) for _ in range(3)]
            before = array("l", last)
            rows = scan(text, len(text), 1, csv.field_size_limit(), room,
                        *_addresses(*columns, before))
            return rows, [list(c[:max(rows, 0)]) for c in columns[:2]], list(before)
        sound = b"2011-01-05T00:00:00,20.0,0.0,0.4\n\n2011-01-05 00:30:00.000001,21.0,0.5,\n"
        day = date(2011, 1, 5).toordinal()
        assert run(sound) == (2, [[day, day], [0, 1800 * 10**6 + 1]],
                              [day, 1800 * 10**6 + 1])
        assert run(sound, last=(day - 1, 0))[0] == 2  # after the day before
        assert run(sound, last=(day, 0))[0] == -1  # not after the row before
        assert run(sound, room=1)[0] == -1  # no room for its second row
        assert run(b"0001-01-01T00:00:00,1,0\n9999-12-31T23:59:59.999999,1,0\n")[1] == [
            [1, date(9999, 12, 31).toordinal()], [0, 86400 * 10**6 - 1]]
        assert run(b"2012-02-29T00:00:00,1,0\n")[0] == 1  # a leap day
        assert run(sound.replace(b"0.5", b"-1"))[0] == -1  # a negative precipitation
        assert run(sound[:-1])[0] == -1  # its last line is not whole
        for stamp in (b"2011-01-05T00:30:00", b"2011-02-29T00:00:00", b"2011-01-05T24:00:00",
                      b"2011-01-05T00:00:00+00:00", b"1900-02-29T00:00:00",
                      b"0000-01-01T00:00:00", b"2011-01-05T00:00:60", b"2011-01-05T00:00",
                      b"2011-01-05X00:30:00", b"2011-01-05T00:30:00.123"):
            text = b"2011-01-05T00:30:00,20.0,0.0\n" + stamp + b",20.0,0.0\n"
            assert run(text)[0] == -1, stamp  # unordered, not a date or time, an offset

        def cells(temp, precip=b"0", theta=b""):
            """The temp, precip and theta one row stores, in hex, or -1."""
            text = b"2011-01-05T00:00:00," + b",".join((temp, precip, theta)) + b"\n"
            columns = [array("l", [0]), array("l", [0]), *(_doubles(1) for _ in range(3))]
            before = array("l", [0, 0])
            rows = scan(text, len(text), 1, csv.field_size_limit(), 1,
                        *_addresses(*columns, before))
            return -1 if rows < 0 else [c[0].hex() for c in columns[2:]]
        # Clinger's and Eisel-Lemire's edges, strtod's cases (a subnormal, more
        # than 19 digits) and the grammar's corners, each as float() reads it
        for text in (b"9007199254740992", b"9007199254740993", b"1e22", b"1e23",
                     b"2.2250738585072011e-308", b"2.2250738585072014e-308",
                     b"4.9406564584124654e-324", b"1.7976931348623157e308",
                     b"0.30000000000000004441", b"1234567890123456789012345", b"-0.0",
                     b"+.5", b"5.", b"5.E+0", b"7e" + b"0" * 30, b"7E-" + b"0" * 29 + b"1",
                     b"000123.4500e-2", b"-1e-400"):
            assert cells(text) == [float(text).hex(), "0x0.0p+0", "nan"], text
        assert cells(b"1", b"-1e-400", b"1e-400") == ["0x1.0000000000000p+0", "-0x0.0p+0",
                                                       "0x0.0p+0"]
        for row in ((b"1e400",), (b"1", b"1e400"), (b"1", b"0", b"1e400"), (b"1e",), (b".",),
                    (b"1", b"-1"), (b"1", b"0", b"-0.5")):
            assert cells(*row) == -1, row  # not finite, not a number, out of range

    def test_ingest_sum_days(self, ingest_functions):
        sum_days = ingest_functions[1]

        def run(day, temp):
            n = len(day)
            inputs = [array("l", day), array("d", temp), array("d", [1.0] * n),
                      array("d", [math.nan] * n)]
            counts, sums = array("l", bytes(24 * n)), _doubles(5 * n)
            k = sum_days(n, *_addresses(*inputs, counts, sums))
            return k, list(counts[:3 * k]), list(sums[:5 * k])
        k, counts, sums = run([7, 7, 9], [-0.0, 0.0, 2.0])
        assert (k, counts) == (2, [7, 2, 0, 9, 1, 0])
        assert [v.hex() for v in sums] == [v.hex() for v in (-0.0, 0.0, -0.0, 2.0, 0.0,
                                                              2.0, 2.0, 2.0, 1.0, 0.0)]
        assert run([], [])[0] == 0
        assert run([7, 9, 8], [1.0, 1.0, 1.0])[0] == -1  # a day goes backwards

    def test_ingest_scan_daily(self, ingest_functions):
        scan_daily = ingest_functions[2]

        def run(text, room=10, last=0, limit=None):
            columns = [array("l", bytes(8 * room)) for _ in range(2)]
            columns += [_doubles(room) for _ in range(5)]
            before = array("l", [last, 0])
            rows = scan_daily(text, len(text), 1, limit or csv.field_size_limit(), room,
                              *_addresses(*columns, before))
            kept = max(rows, 0)
            return (rows, [list(c[:kept]) for c in columns[:2]],
                    [[v.hex() for v in c[:kept]] for c in columns[2:]], before[0])
        # blank lines, a skipped date, signed and zero-padded day indices, -0.0
        sound = (b"2011-01-05,0,30.0,25.0,20.0,1.5,0.4\n\n"
                 b"2011-01-07,+5,-0.0,-0.0,-0.0,0.0,\n2011-01-08,007,1,1,1,0\n")
        day = date(2011, 1, 5).toordinal()
        assert run(sound) == (3, [[day, day + 2, day + 3], [0, 5, 7]], [
            [v.hex() for v in column] for column in (
                (30.0, -0.0, 1.0), (25.0, -0.0, 1.0), (20.0, -0.0, 1.0), (1.5, 0.0, 0.0),
                (0.4, math.nan, math.nan))], day + 3)
        assert run(sound, last=day - 1)[0] == 3  # after the day before
        assert run(sound, last=day)[0] == -1  # not after the row before
        assert run(sound, room=2)[0] == -1  # no room for its third row
        assert run(b"2011-01-05,-0,1,1,1,0\n2011-01-06,-999999999999999999,1,1,1,0\n")[1] == [
            [day, day + 1], [0, -999999999999999999]]
        assert run(sound, limit=10)[0] == 3  # each field within the limit
        row = b"2011-01-05,0,30.0,25.0,20.0,1.5,0.4"
        for bad in (row + b"\n" + row, row + b"\n" + row.replace(b"-05", b"-04"),
                    row.replace(b"2011-01-05", b"2011-02-29"),
                    row.replace(b"2011-01-05", b"20110105"),
                    row.replace(b",0,", b"," + b"1" * 30 + b","),
                    row.replace(b",0,", b"," + b"1" * 19 + b","),
                    row.replace(b"30.0", b"nan"), row.replace(b"30.0", b"1e400"),
                    row.replace(b"1.5", b"1.5x"), row.replace(b"0.4", b"0.4 "),
                    row.replace(b"20.0", b"25.5"),  # tmin above tavg
                    row.replace(b"1.5", b"-1.5"), row.replace(b"0.4", b"1.5"),
                    row + b"\r", row.replace(b"1.5", b'"1.5"'), row + b",\xc3\xa9",
                    row + b"," + b"x" * 11):
            assert run(bad + b"\n", limit=10)[0] == -1, bad
        assert run(row)[0] == -1  # its last line is not whole

    def test_ingest_scan_field_limit(self, ingest_functions):
        """The stamp, date and day_index are held to the limit as every field."""
        scan, scan_daily = ingest_functions[0], ingest_functions[2]

        def rows(function, text, limit, n_doubles):
            columns = [array("l", [0]), array("l", [0]), *(_doubles(1) for _ in range(n_doubles))]
            before = array("l", [0, 0])
            return function(text, len(text), 1, limit, 1, *_addresses(*columns, before))
        for stamp in (b"2011-01-05T00:00:00", b"2011-01-05 00:00:00.000001"):
            assert rows(scan, stamp + b",1,0\n", len(stamp), 3) == 1
            assert rows(scan, stamp + b",1,0\n", len(stamp) - 1, 3) == -1
        assert rows(scan_daily, b"2011-01-05,0,1,1,1,0\n", 10, 5) == 1
        assert rows(scan_daily, b"2011-01-05,0,1,1,1,0\n", 9, 5) == -1
        assert rows(scan_daily, b"2011-01-05," + b"1" * 11 + b",1,1,1,0\n", 10, 5) == -1
