"""Golden outputs: the exact bytes of each command on on/off links.

Every on/off rate is exactly 0 or se_cap, so these outputs depend only on
the random stream, the engine's arithmetic and the writers; any change to
one of them shows here as a byte difference. Geometric outputs are left
out on purpose: their rates go through libm/SIMD `log2`, `power` and
`hypot`, whose last bits may differ between numpy builds, and the Python
3.10 CI leg installs a numpy older than 2.3.

After a declared stream change, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from click.testing import CliRunner

import relayprobe as rp
from relayprobe.cli import main
from relayprobe.simulator import OptimalThreshold, estimate_throughput

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = ("sweep.csv", "threshold_sweep.csv", "solve.json", "trace.csv")
# the README's p_avail sweep with every kind of row, at 2,000 periods
SPEC = {"variable": "p_avail", "grid": [0.1, 0.3, 0.5, 0.7, 0.9],
        "strategies": ["optimal", "myopic", "genie", "fixed:5"],
        "n_periods": 2000, "seed": 3}


def write_outputs(out: Path, work: Path) -> None:
    """Write every output in OUTPUTS into `out`, with inputs in `work`."""
    cfg = rp.default_scenario(p_avail=0.5, tau=0.01, channel_mode="onoff")
    cfg_path, spec_path = work / "cfg.json", work / "spec.json"
    cfg.to_json(cfg_path)
    spec_path.write_text(json.dumps(SPEC))
    for args in (["sweep", cfg_path, spec_path, "--out", out / "sweep.csv"],
                 ["figure", cfg_path, "--figure-id", "threshold_sweep", "--seed", "3",
                  "--periods", "2000", "--out", out / "threshold_sweep.csv"],
                 ["solve", cfg_path, "--out", out / "solve.json"]):
        res = CliRunner().invoke(main, [str(a) for a in args])
        assert res.exit_code == 0, res.output
    estimate_throughput(OptimalThreshold(), cfg, 200, 3, trace_path=out / "trace.csv")


def test_onoff_outputs_equal_golden(tmp_path):
    write_outputs(tmp_path, tmp_path)
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        write_outputs(GOLDEN, Path(work))
