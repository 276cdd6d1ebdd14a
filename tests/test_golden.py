"""Golden outputs: the exact bytes of each command.

Every on/off rate is exactly 0 or se_cap, so the on/off outputs depend only
on the random stream, the engine's arithmetic and the writers; any change to
one of them shows here as a byte difference. Geometric rates also go through
libm/SIMD `log2`, `power`, `hypot`, `cos` and `sin`, whose last bits may
differ between numpy builds (the Python 3.10 CI leg installs a numpy older
than 2.3). So the geometric files are compared only on the numpy version
recorded with them in `golden/geo/numpy_version`, and skipped elsewhere.

After a declared stream change, rewrite every golden file with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import relayprobe as rp
from relayprobe.cli import main
from relayprobe.simulator import (ExplicitThreshold, OptimalThreshold,
                                  estimate_throughput)

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = ("sweep.csv", "threshold_sweep.csv", "solve.json", "trace.csv")
GEO_OUTPUTS = ("sweep.csv", "solve.json", "threshold_sweep.csv", "trace.csv")
NUMPY_VERSION = GOLDEN / "geo" / "numpy_version"
# the README's p_avail sweep with every kind of row, at 2,000 periods
SPEC = {"variable": "p_avail", "grid": [0.1, 0.3, 0.5, 0.7, 0.9],
        "strategies": ["optimal", "myopic", "genie", "fixed:5"],
        "n_periods": 2000, "seed": 3}
# threshold rows at p = 0.9 that reach the clear-link law's 99.7th percentile
GEO_THRESHOLD_GRID = [0.34, 0.9275, 1.515, 2.1025, 2.69]
GEO_THRESHOLD_SPEC = {"variable": "threshold", "grid": GEO_THRESHOLD_GRID,
                      "strategies": ["threshold", "optimal", "myopic", "fixed:5"],
                      "n_periods": 4000, "seed": 3}
# every kind of row that fails, among rows that do not, on the on/off config:
# a grid value the config rejects, an unknown strategy, a bare threshold
# outside a threshold sweep, a runaway threshold and a fixed count above MAX_PROBES;
# 9,000 periods are three chunks, so --workers 2 and 3 fork helpers
ERROR_SPEC = {"variable": "p_avail", "grid": [0.5, 1.5],
              "strategies": ["optimal", "genie", "bogus", "threshold", "threshold:9.0",
                             "fixed:1000000000", "myopic"],
              "n_periods": 9000, "seed": 3}


def run(*commands) -> None:
    for args in commands:
        res = CliRunner().invoke(main, [str(a) for a in args])
        assert res.exit_code == 0, res.output


def write_inputs(cfg, work: Path, spec=SPEC) -> tuple[Path, Path]:
    cfg_path, spec_path = work / f"{cfg.channel_mode}.json", work / "spec.json"
    cfg.to_json(cfg_path)
    spec_path.write_text(json.dumps(spec))
    return cfg_path, spec_path


def onoff_scenario():
    return rp.default_scenario(p_avail=0.5, tau=0.01, channel_mode="onoff")


def write_error_rows(out: Path, work: Path, workers: int = 1) -> None:
    """Write the ERROR_SPEC sweep into `out`/errors.csv, with inputs in `work`."""
    cfg_path, spec_path = write_inputs(onoff_scenario(), work, ERROR_SPEC)
    run(["sweep", cfg_path, spec_path, "--workers", workers, "--out", out / "errors.csv"])


def write_outputs(out: Path, work: Path) -> None:
    """Write every output in OUTPUTS into `out`, with inputs in `work`."""
    cfg = onoff_scenario()
    cfg_path, spec_path = write_inputs(cfg, work)
    run(["sweep", cfg_path, spec_path, "--out", out / "sweep.csv"],
        ["figure", cfg_path, "--figure-id", "threshold_sweep", "--seed", "3",
         "--periods", "2000", "--out", out / "threshold_sweep.csv"],
        ["solve", cfg_path, "--out", out / "solve.json"])
    estimate_throughput(OptimalThreshold(), cfg, 200, 3, trace_path=out / "trace.csv")


def write_geo_outputs(out: Path, work: Path) -> None:
    """Write every output in GEO_OUTPUTS into `out`, with inputs in `work`."""
    cfg_path, spec_path = write_inputs(rp.default_scenario(p_avail=0.5, tau=0.01), work)
    run(["sweep", cfg_path, spec_path, "--out", out / "sweep.csv"],
        ["solve", cfg_path, "--seed", "3", "--out", out / "solve.json"])
    high = rp.default_scenario(p_avail=0.9)
    cfg_path, spec_path = write_inputs(high, work, GEO_THRESHOLD_SPEC)
    run(["sweep", cfg_path, spec_path, "--out", out / "threshold_sweep.csv"])
    estimate_throughput(ExplicitThreshold(GEO_THRESHOLD_GRID[-1]), high, 200, 3,
                        trace_path=out / "trace.csv")


def test_onoff_outputs_equal_golden(tmp_path):
    write_outputs(tmp_path, tmp_path)
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_error_rows_equal_golden(tmp_path, workers):
    write_error_rows(tmp_path, tmp_path, workers)
    assert (tmp_path / "errors.csv").read_bytes() == (GOLDEN / "errors.csv").read_bytes()


def test_geometric_outputs_equal_golden(tmp_path):
    recorded = NUMPY_VERSION.read_text().strip()
    if recorded != np.__version__:
        pytest.skip(f"geometric golden files were written with numpy {recorded}, "
                    f"this is numpy {np.__version__}")
    write_geo_outputs(tmp_path, tmp_path)
    for name in GEO_OUTPUTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "geo" / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        write_outputs(GOLDEN, Path(work))
        write_error_rows(GOLDEN, Path(work))
        write_geo_outputs(GOLDEN / "geo", Path(work))
    NUMPY_VERSION.write_text(np.__version__ + "\n")
