"""The package runs on the standard library; the dataset draw is pinned."""

import hashlib
import os
import pathlib
import subprocess
import sys

import repro
from repro.workloads import mscoco_like

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def test_the_model_imports_no_numpy():
    """No module of the package imports numpy: not the simulator, the file
    systems, the benchmark figures and IO500 scoring or the crash checker,
    and not a dataset draw or a score average run through them (it would
    be resident in every process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "import repro, repro.core, repro.workloads, repro.bench.harness\n"
            "import repro.bench, repro.bench.figures, repro.bench.io500\n"
            "import repro.faults.crashcheck\n"
            "repro.workloads.mscoco_like(48, seed=1)\n"
            "repro.bench.io500._geomean([1.5, 2.5, 4.0])\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'numpy')[:5])\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]", done.stdout


def test_mscoco_sizes_are_pinned():
    """The standard-library draw is pinned (the ``archive`` workload's
    dataset and every counter pinned on it depend on its sizes)."""
    sizes = [im.size for im in mscoco_like(48, seed=12345, mean_kb=50)]
    digest = hashlib.sha256(",".join(map(str, sizes)).encode()).hexdigest()
    assert sum(sizes) == 2_801_202
    assert digest == ("a7240ca38f3d029c2aec917975254036"
                      "4e67fa37f9a1640293e05e05ccd1f14d")
