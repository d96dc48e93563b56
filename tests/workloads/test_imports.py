"""The model loads without numpy; the one draw that uses it is unchanged."""

import hashlib
import os
import pathlib
import subprocess
import sys

import repro
from repro.workloads import mscoco_like

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def test_the_model_imports_no_numpy():
    """numpy is imported where a dataset is drawn or a score is averaged,
    not on the import path of the simulator, the file systems or the
    benchmark harness (it would be resident in every process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "import repro, repro.core, repro.workloads, repro.bench.harness\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'numpy')[:5])\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]", done.stdout


def test_mscoco_sizes_are_pinned():
    """The lazy import draws the same sizes (the ``archive`` workload's
    dataset and every counter pinned on it depend on them)."""
    sizes = [im.size for im in mscoco_like(48, seed=12345, mean_kb=50)]
    digest = hashlib.sha256(",".join(map(str, sizes)).encode()).hexdigest()
    assert sum(sizes) == 3_134_646
    assert digest == ("a0f2f0d097020884bad162562d0459d5"
                      "4852cc14eef1ba508505d4ba32ed2f71")
