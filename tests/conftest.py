"""Shared fixtures: the default experiment is expensive (two 1000-epoch
trainings), so it runs once per session and is reused wherever the
cross-period results are asserted; ``rendering`` runs a test once per
rendering of the training kernel."""

import functools
import shutil
from dataclasses import replace

import pytest

from paddymoist import ann, default_config, run_experiment
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


@pytest.fixture(params=["python", "c"])
def rendering(request, monkeypatch):
    """``train`` and ``backprop_step`` run the named rendering's train loop."""
    if request.param == "python":
        kernel = ann._python_kernel
    else:
        if shutil.which("cc") is None:
            pytest.skip("no C compiler 'cc' on PATH")

        def kernel(t):
            return ann._c_train_loop(t), ann._python_kernel(t)[1]
    monkeypatch.setattr(ann, "_kernel", functools.cache(kernel))
    return request.param
