import importlib
import pkgutil
from pathlib import Path

import pytest

import darkfloquet

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
