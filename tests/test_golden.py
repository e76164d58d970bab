"""Golden-output guard: saved documents keep their bytes across refactors.

The files under ``tests/golden/`` were written by
``tests/golden/make_golden.py``.  The report checks need no arithmetic (a
decode and re-encode of saved text), so they hold on any BLAS; the
re-runs compare structure exactly and numbers within a tolerance.
"""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

from hypothesis import given
from hypothesis import strategies as st

from curvecast import report_from_json, report_to_json, write_report_csvs
from curvecast._docs import decode_keys, encode_keys
from golden.make_golden import (
    CLI_DIR, CLI_RUNS, PANEL, PARTIAL, REPORT_DIR, golden_report, run_cli,
)

TOL = 1e-12


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def _close(a: float, b: float, tol: float) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def assert_json_close(got, want, tol, where="$"):
    """Same keys in the same order, same types and strings; numbers within ``tol``."""
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert list(got) == list(want), where
        for k in want:
            assert_json_close(got[k], want[k], tol, f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, tol, f"{where}[{i}]")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        assert type(got) is type(want), where
        assert _close(got, want, tol), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def assert_csv_close(got: str, want: str, tol: float) -> None:
    g_rows = list(csv.reader(io.StringIO(got)))
    w_rows = list(csv.reader(io.StringIO(want)))
    assert g_rows[0] == w_rows[0]
    assert len(g_rows) == len(w_rows)
    for g_row, w_row in zip(g_rows[1:], w_rows[1:]):
        assert len(g_row) == len(w_row)
        for g, w in zip(g_row, w_row):
            try:
                wv = float(w)
            except ValueError:
                assert g == w
                continue
            assert _close(float(g), wv, tol), f"{g} != {w}"


def _report_files():
    return sorted(n for n in os.listdir(REPORT_DIR) if n != "report.json")


def test_report_round_trip_is_byte_identical():
    text = _read(os.path.join(REPORT_DIR, "report.json"))
    assert report_to_json(report_from_json(text)) + "\n" == text


def test_report_csvs_from_saved_report_are_byte_identical(tmp_path):
    report = report_from_json(_read(os.path.join(REPORT_DIR, "report.json")))
    write_report_csvs(report, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == _report_files()
    for name in _report_files():
        assert (tmp_path / name).read_bytes() == open(os.path.join(REPORT_DIR, name), "rb").read()


def test_rerun_backtest_matches_golden_report(tmp_path):
    report = golden_report()
    want = _read(os.path.join(REPORT_DIR, "report.json"))
    assert_json_close(json.loads(report_to_json(report)), json.loads(want), 1e-9)
    write_report_csvs(report, str(tmp_path))
    for name in _report_files():
        got = (tmp_path / name).read_text()
        if name.endswith(".csv"):
            assert_csv_close(got, _read(os.path.join(REPORT_DIR, name)), 1e-9)
        else:
            assert got == _read(os.path.join(REPORT_DIR, name))


def test_cli_outputs_match_golden(tmp_path):
    for name in (PANEL, PARTIAL):
        shutil.copy(os.path.join(CLI_DIR, name), tmp_path / name)
    run_cli(str(tmp_path))
    for _, files in CLI_RUNS:
        for name in files:
            got = (tmp_path / name).read_text()
            want = _read(os.path.join(CLI_DIR, name))
            if name.endswith(".json"):
                assert_json_close(json.loads(got), json.loads(want), TOL, name)
            else:
                assert_csv_close(got, want, TOL)


def _golden_outputs(workdir, blas_threads: int) -> dict:
    """The golden backtest's report and CSVs, run in a fresh process on ``blas_threads`` threads."""
    tests = os.path.dirname(os.path.abspath(__file__))
    script = (
        "import sys\n"
        "from curvecast import report_to_json, write_report_csvs\n"
        "from golden.make_golden import golden_report\n"
        "report = golden_report()\n"
        "with open(sys.argv[1] + '/report.json', 'w') as fh:\n"
        "    fh.write(report_to_json(report))\n"
        "write_report_csvs(report, sys.argv[1])\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(filter(None, [
                   os.path.join(os.path.dirname(tests), "src"), tests, os.environ.get("PYTHONPATH"),
               ])))
    subprocess.run([sys.executable, "-c", script, str(workdir)], env=env, check=True, timeout=300)
    return {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}


def test_golden_backtest_does_not_depend_on_blas_threads(tmp_path):
    runs = []
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        runs.append(_golden_outputs(tmp_path / str(threads), threads))
    assert "report.json" in runs[0] and any(name.endswith(".csv") for name in runs[0])
    assert runs[0] == runs[1]


def test_golden_report_records_a_skipped_cell():
    doc = json.loads(_read(os.path.join(REPORT_DIR, "report.json")))
    assert doc["skipped_cells"] == [{"method": "OLS", "m": 2, "count": 8}]


def _typed(mapping):
    return [
        (type(k), k, _typed(v) if isinstance(v, dict) else v) for k, v in mapping.items()
    ]


_alphas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@given(st.dictionaries(_alphas, st.dictionaries(st.integers(), st.floats(allow_nan=False))))
def test_numeric_keys_survive_encode_json_decode(doc):
    # alpha -> {m -> value}, the shape of every per-level, per-period table
    back = decode_keys(json.loads(json.dumps(encode_keys(doc))))
    assert _typed(back) == _typed(doc)
