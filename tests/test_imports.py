"""Import budget: a run loads only the scipy submodules it uses.

`import fieldtopo` needs numpy and no scipy submodule.  The normal CDF
(`expected_chi`, `pdf_compare`), the Binomial PMF (`pdf_compare`, ensembles
of 100 or more realizations) and the spectral quadrature (`spectral_moment`)
load `scipy.special`, `scipy.stats` and `scipy.integrate` on first use, so
`gen`, `sweep` and small ensembles, 2D and 3D, never pay for them.  No
route loads `scipy.ndimage`.  Each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: submodules that no import, `gen` or sub-100-realization ensemble may load
UNUSED = (
    "scipy.ndimage",
    "scipy.special",
    "scipy.stats",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.linalg",
    "scipy.interpolate",
)

CONFIG = """\
n = 32
boxsize = 32
rs = 1.0
n_realizations = 3
thresholds = -1 0 1
workers = 1
"""

#: the same ensemble in 3D, which counts components with `betti3d`
CONFIG_3D = CONFIG + "dim = 3\n"


def run_fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_gen_and_small_ensemble_load_no_unused_scipy(tmp_path):
    (tmp_path / "run.cfg").write_text(CONFIG)
    (tmp_path / "run3d.cfg").write_text(CONFIG_3D)
    code = f"""
import json, sys
UNUSED = {UNUSED!r}
def loaded():
    return sorted(m for m in UNUSED if m in sys.modules)
steps = {{}}
import fieldtopo, fieldtopo.cli
steps["import"] = loaded()
assert fieldtopo.cli.main(["gen", "--n", "32", "--boxsize", "32", "--out", "f.bin"]) == 0
steps["gen"] = loaded()
assert fieldtopo.cli.main(["ensemble", "--config", "run.cfg", "--output-dir", "out"]) == 0
steps["ensemble"] = loaded()
assert fieldtopo.cli.main(["ensemble", "--config", "run3d.cfg", "--output-dir", "out3d"]) == 0
steps["ensemble3d"] = loaded()
print(json.dumps(steps))
"""
    steps = run_fresh(code, tmp_path)
    assert steps == {"import": [], "gen": [], "ensemble": [], "ensemble3d": []}
    assert (tmp_path / "out" / "summary.csv").exists()
    assert json.loads((tmp_path / "out3d" / "manifest.json").read_text())["dim"] == 3


def test_lazily_loaded_functions_work_from_a_fresh_interpreter(tmp_path):
    code = """
import json
import numpy as np
from fieldtopo import (
    PowerSpectrumModel, expected_chi, fit_binomial_moments, pdf_compare, spectral_moment,
)
samples = np.random.default_rng(3).binomial(20, 0.3, size=100)
fit = fit_binomial_moments(float(samples.mean()), float(samples.var(ddof=1)))
cmp = pdf_compare(samples, fit)
s0 = spectral_moment(PowerSpectrumModel(1.0), 0, 2.0, 0.0, float("inf"), 2)
chi = expected_chi(0.0, 1.0, 10.0)
print(json.dumps({"valid": fit.valid, "tv_binomial": cmp.tv_binomial, "s0": s0, "chi": chi}))
"""
    out = run_fresh(code, tmp_path)
    assert out["valid"]
    # at nu = 0 the area term vanishes: 2 L rho_1(0) + 1 - Phi(0)
    assert abs(out["chi"] - (10.0 / (2**0.5 * 3.141592653589793) + 0.5)) < 1e-12
    assert 0.0 <= out["tv_binomial"] < 0.3
    # flat spectrum, Gaussian window: sigma0^2 = 1 / (4 pi rs^2)
    assert abs(out["s0"] * 16.0 * 3.141592653589793 - 1.0) < 1e-7
