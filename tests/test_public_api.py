import importlib
import os
import pkgutil
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import darkfloquet
from darkfloquet.cli import main

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("0*.py"))
MODULES = ["darkfloquet"] + [f"darkfloquet.{info.name}"
                             for info in pkgutil.iter_modules(darkfloquet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_readme_library_tour_runs(capsys):
    # the README's python block, run as written: every name it imports exists
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_command_lines_run(tmp_path):
    # each darkfloquet line of the README's CLI block, on a 3-point grid for
    # the sweeps and writing under tmp_path: argparse keeps a flag's last value
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("darkfloquet ")]
    assert len(lines) == 5
    for i, argv in enumerate(lines):
        if argv[0] in ("sweep-min-pop", "floquet-sweep", "effective-compare"):
            argv += ["--ratio-grid", "0:5:3"]
        assert main([*argv, "--out", str(tmp_path / f"{i}.csv")]) == 0, argv


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a copy, because a demo may write next to its own file
    demos = shutil.copytree(demo.parent, tmp_path / "demos")
    src = str(Path(darkfloquet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, str(demos / demo.name)],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    # what a demo writes into output/ reproduces the checked-in tables: the
    # same '#' lines and header, data within 1e-12 (12 digits are printed)
    for checked in sorted(demo.parent.glob("output/*.csv")):
        ours, theirs = (_csv_parts(p) for p in
                        (demos / "output" / checked.name, checked))
        assert ours[:2] == theirs[:2], checked.name
        np.testing.assert_allclose(ours[2], theirs[2], rtol=1e-12, atol=1e-12,
                                   err_msg=checked.name)


def _csv_parts(path):
    """('#' lines, header, data rows as an array) of a CSV."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    return ([line for line in lines if line.startswith("#")], rows[0],
            np.array(rows[1:], dtype=float))
