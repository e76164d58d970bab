"""The same-results probe, on canned outputs and on a small git repository; no benchmark runs."""

import importlib.util
import os
import shutil
import subprocess
import tempfile

import numpy as np

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_results.py")
_spec = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_compare_names_every_output_and_how_far_an_array_moved():
    parent = {"a": np.array([1.0, -4.0]), "b": b"text", "same": np.arange(3)}
    change = {"a": np.array([1.0, -3.0]), "c": b"text", "same": np.arange(3)}
    lines, same = same_results.compare(parent, change)
    assert not same
    digest = same_results.sha256(np.arange(3))[:16]
    assert lines == [
        f"a: {same_results.sha256(parent['a'])[:16]} {same_results.sha256(change['a'])[:16]} "
        "differs (largest relative difference 0.25)",
        f"b: {same_results.sha256(b'text')[:16]} missing differs",
        f"c: missing {same_results.sha256(b'text')[:16]} differs",
        f"same: {digest} {digest} same",
    ]
    assert same_results.compare({"x": b"1"}, {"x": b"1"}) == (["x: " + " ".join(
        [same_results.sha256(b"1")[:16]] * 2) + " same"], True)
    # the dtype and shape are part of an array's digest
    assert same_results.sha256(np.zeros(2)) != same_results.sha256(np.zeros((1, 2)))
    assert same_results.sha256(np.zeros(2)) != same_results.sha256(np.zeros(2, np.int64))


def test_working_tree_against_its_commit(tmp_path, monkeypatch, capsys):
    repo, scratch = tmp_path / "repo", tmp_path / "tmp"
    scratch.mkdir()
    shutil.copytree(SRC, repo / "src", ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-c", "user.name=probe", "-c", "user.email=probe@example.com"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + argv, cwd=repo, check=True, capture_output=True)
    monkeypatch.chdir(repo)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))

    assert same_results.main(["--parent", "HEAD", "--probe", "draws"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 + 2 * 3 * 3 * len(same_results.DRAW_FIELDS)
    assert all(line.endswith(" same") for line in out[1:-1])

    datagen = repo / "src" / "curvecast" / "datagen.py"
    text = datagen.read_text()
    assert "\nBURN_IN = 500\n" in text
    datagen.write_text(text.replace("\nBURN_IN = 500\n", "\nBURN_IN = 501\n"))
    assert same_results.main(["--parent", "HEAD", "--probe", "draws"]) == 1
    out = capsys.readouterr().out.splitlines()
    moved = [line for line in out if line.startswith("draws/C06/seed0/B57/future_scores: ")]
    assert len(moved) == 1 and " differs (largest relative difference " in moved[0]
    assert out[-1] == "some outputs differ"
    assert not list(scratch.iterdir())  # both exported trees are removed
