"""The README examples, the demos and every export list still run."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import pairfit
import pairfit.cli as cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = ["pairfit"] + sorted(f"pairfit.{m.name}" for m in pkgutil.iter_modules(pairfit.__path__))


def readme_blocks(language, after):
    """Fenced ``language`` blocks of the README section headed ``after``."""
    section = README.split(f"## {after}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.S)


@pytest.mark.parametrize("index", [0, 1])
def test_readme_library_examples_run(index, capsys):
    blocks = readme_blocks("python", "Quick start (library)")
    assert len(blocks) == 2
    exec(compile(blocks[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    (block,) = readme_blocks("sh", "Quick start (command line)")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["pairfit", "simulate"], ["pairfit", "test"], ["pairfit", "check-assumptions"]
    ]
    monkeypatch.chdir(ROOT)
    for k, argv in enumerate(commands):
        args = argv[1:]
        if "--out" in args:
            args = args[: args.index("--out")] + args[args.index("--out") + 2 :]
        assert cli.main(args + ["--out", str(tmp_path / str(k))]) == 0, argv
        assert (tmp_path / str(k) / "summary.json").is_file()


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
    exec(f"from {module} import *", {})
