"""Cold start: `import speclaw` loads numpy and the standard library only.

scipy loads when a command needs it: the bundled-OpenBLAS lookup of a
campaign, scipy.linalg at the first dsytrd reduction, scipy.io for
`sample --format mm`.  Each check runs in a fresh interpreter, since this
process has long imported scipy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import speclaw
from speclaw import ensembles as ens, qve

_SRC = str(Path(speclaw.__file__).resolve().parents[1])


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True, **kwargs)


def test_import_loads_no_scipy_module():
    run = _python("-c", "import json, sys, speclaw, speclaw.cli; "
                        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert json.loads(run.stdout) == []


def test_matrix_market_sample_from_a_fresh_interpreter(tmp_path):
    # the one path that needs scipy.io, which speclaw imports only inside save_matrix_market
    import scipy.io

    spec = ens.WignerSpec(n=12, profile=qve.VarianceProfile.constant(12), law=ens.EntryLaw("uniform_bounded"), seed=5)
    spec_path, out = tmp_path / "wigner.json", tmp_path / "m.mtx"
    spec.to_json(spec_path)
    _python("-m", "speclaw.cli", "sample", "--ensemble", str(spec_path), "--format", "mm", "--out", str(out))
    assert np.array_equal(np.asarray(scipy.io.mmread(str(out))), ens.sample(spec))
