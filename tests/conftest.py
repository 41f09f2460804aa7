"""Shared fixtures: the default experiment is expensive (two 1000-epoch
trainings), so it runs once per session and is reused wherever the
cross-period results are asserted; ``rendering`` runs a test once per
rendering of the generated kernel, and ``station_reader`` once with the C
station-file scanner and once with the Python pass alone."""

import functools
import shutil
from dataclasses import replace

import pytest

from paddymoist import ann, default_config, ingest, run_experiment
from paddymoist.ann import TrainConfig


def quick_config(et0_epochs=150, moisture_epochs=150):
    """Default config with reduced epochs, for tests that only need the plumbing."""
    cfg = default_config()
    return replace(
        cfg,
        et0_train=replace(cfg.et0_train, epochs=et0_epochs),
        moisture_train=replace(cfg.moisture_train, epochs=moisture_epochs),
    )


@pytest.fixture(scope="session")
def default_report():
    """Full default experiment (1000-epoch trainings), computed once."""
    return run_experiment(default_config())


def rendering_kernel(name):
    """A stand-in for ``ann._kernel`` whose train and series loops are the
    named rendering's; ``forward`` is always the Python rendering's."""
    return {"python": ann._python_kernel, "c": ann._c_kernel}[name]


@pytest.fixture(params=["python", "c"])
def rendering(request, monkeypatch):
    """``train``, ``backprop_step`` and ``series`` (so ``predict_et0_series``
    and ``simulate_moisture``) run the named rendering's loops."""
    if request.param == "c" and shutil.which("cc") is None:
        pytest.skip("no C compiler 'cc' on PATH")
    monkeypatch.setattr(ann, "_kernel", functools.cache(rendering_kernel(request.param)))
    return request.param


@pytest.fixture(params=["scanner", "python"])
def station_reader(request, monkeypatch):
    """``read_half_hourly_csv`` reads plain files with the C scanner, or,
    with the scanner disabled, every file with the Python pass."""
    if request.param == "scanner" and ingest._scanner() is None:
        pytest.skip("the C station-file scanner did not build")
    if request.param == "python":
        monkeypatch.setattr(ingest, "_scanner", lambda: None)
    return request.param
