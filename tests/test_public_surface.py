"""The public surface: exported names resolve and the README example runs."""

import importlib
import re
from pathlib import Path

import perfci

MODULES = ("cli", "covariance", "dataset", "errors", "intervals", "measures", "quantiles", "simulation")
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for module in [perfci] + [importlib.import_module(f"perfci.{name}") for name in MODULES]:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["model_a", "accuracy"], ["model_a", "f1"]]
