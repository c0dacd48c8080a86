"""Sanity checks for the example scripts and package metadata."""

import importlib
import os
import pathlib
import py_compile
import subprocess
import sys
import tomllib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted(ROOT.joinpath("examples").glob("*.py"))

#: imports every module of the package with scipy made unimportable and
#: prints the ones that fail
IMPORT_ALL_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    try:
        importlib.import_module(info.name)
    except ImportError as exc:
        print(info.name, exc)
"""


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert "quickstart.py" in names
        assert len(names) >= 3  # the deliverable floor

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_compiles(self, path, tmp_path):
        py_compile.compile(str(path), str(tmp_path / "out.pyc"),
                           doraise=True)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_has_docstring_and_main(self, path):
        src = path.read_text()
        assert src.lstrip().startswith(("#!/usr/bin/env python", '"""')), \
            path.name
        assert "def main(" in src
        assert '__main__' in src


class TestPackage:
    def test_version_importable(self):
        import repro
        assert repro.__version__

    def test_public_subpackages_import(self):
        for mod in ("repro.core", "repro.containers", "repro.lattice",
                    "repro.particles", "repro.distances", "repro.splines",
                    "repro.jastrow", "repro.spo", "repro.determinant",
                    "repro.wavefunction", "repro.hamiltonian",
                    "repro.drivers", "repro.precision", "repro.workloads",
                    "repro.miniapps", "repro.parallel", "repro.perfmodel",
                    "repro.metrics", "repro.memory", "repro.stats",
                    "repro.output", "repro.sanitizers"):
            importlib.import_module(mod)

    def test_console_scripts_resolve(self):
        """Every ``[project.scripts]`` entry names an importable callable
        (the suite runs from a source tree, so nothing else would notice
        a dangling entry point)."""
        pyproject = ROOT / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts
        for name, target in scripts.items():
            module, _, func = target.partition(":")
            assert callable(getattr(importlib.import_module(module), func)), \
                name

    def test_runtime_needs_only_numpy(self):
        """The declared runtime dependency is numpy alone, and every
        module of the package imports without scipy."""
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert [dep.split(">")[0] for dep in
                project["project"]["dependencies"]] == ["numpy"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", IMPORT_ALL_WITHOUT_SCIPY],
                             env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout == ""

    def test_all_exports_resolve(self):
        for mod_name in ("repro.core", "repro.distances", "repro.spo",
                         "repro.parallel", "repro.perfmodel"):
            mod = importlib.import_module(mod_name)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), (mod_name, name)
