"""The README's library examples run as written."""

import re
from pathlib import Path

import paddymoist as pm
from paddymoist.experiment import load_period, write_synth_periods

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_piece_by_piece_example_runs():
    (block,) = [b for b in _python_blocks() if "generate_truth" in b]
    names: dict = {}
    exec(compile(block, str(README), "exec"), names)
    ledger, theta = names["ledger"], names["theta"]
    assert len(ledger) == len(theta) == len(names["estimates"]) == 118
    assert names["runoff_mm"] == sum(row.fluxes.runoff_mm for row in ledger)
    assert [row.et0 for row in ledger] == pm.hargreaves_series(names["weather"],
                                                               pm.SiteLocation())
    assert names["losses"][-1] < names["losses"][0]


def test_real_data_config_example_loads(tmp_path, monkeypatch):
    (block,) = re.findall(r"```text\n(period1\.source = csv\n.*?)```",
                          README.read_text(encoding="utf-8"), re.S)
    # a csv period's length must match its file, so the example sets both
    for name in ("period1", "period2"):
        assert f"\n{name}.days = " in block
    cfg = pm.parse_config(block)
    monkeypatch.chdir(tmp_path)
    for path in write_synth_periods(pm.default_config(), tmp_path):
        path.rename(path.name.replace("period1", "field_2010")
                    .replace("period2", "field_2011"))
    for spec, name in ((cfg.period1, "period1"), (cfg.period2, "period2")):
        assert len(load_period(cfg, spec, name).days) == spec.n_days
