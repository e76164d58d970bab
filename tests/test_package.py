"""The public surface: ``__all__`` is exactly what ``from curvecast import *`` binds.

The package also stays below its line ceiling.
"""

import ast
import os
from types import ModuleType

import curvecast


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from curvecast import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(curvecast.__all__)
    assert len(set(curvecast.__all__)) == len(curvecast.__all__)
    for name, value in namespace.items():
        assert not name.startswith("_") and not isinstance(value, ModuleType), name


def test_every_name_the_acceptance_suite_imports_is_public():
    with open(os.path.join(os.path.dirname(__file__), "test_acceptance.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "curvecast"
        for alias in node.names
    }
    assert imported and imported <= set(curvecast.__all__)


def test_package_stays_below_the_line_ceiling():
    # every line of every .py in the package, counted as the benchmark's pkg.src_lines is
    pkg = os.path.dirname(curvecast.__file__)
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    assert lines < 3900, f"{lines} source lines; ROADMAP caps the package below 3,900"
