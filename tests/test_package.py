"""The public surface: ``__all__`` is exactly what ``from curvecast import *`` binds."""

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
