"""The per-layer metric names in BENCHMARK.json name code that exists.

A traced benchmark run looks up the library function behind each
``module.function.metric`` row by name, so renaming or removing one of those
functions breaks the run. This is the same lookup, made offline.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = [row["name"] for row in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
FUNCTION_ROWS = [name for name in NAMES if name.count(".") == 2]
MODULE_ROWS = [name for name in NAMES if name.count(".") != 2 and not name.startswith("trace.")]


def test_rows_are_split_between_functions_and_modules():
    assert FUNCTION_ROWS and MODULE_ROWS


@pytest.mark.parametrize("name", FUNCTION_ROWS)
def test_function_row_names_a_public_function_of_its_module(name):
    module_name, fn_name, _ = name.split(".")
    module = importlib.import_module(f"symqkd.{module_name}")
    fn = getattr(module, fn_name, None)
    assert not fn_name.startswith("_"), name
    assert inspect.isfunction(fn), f"{name}: symqkd.{module_name}.{fn_name} is not a function"
    assert fn.__module__ == module.__name__, f"{name}: {fn_name} is defined in {fn.__module__}"


@pytest.mark.parametrize("name", MODULE_ROWS)
def test_other_row_names_a_module(name):
    importlib.import_module(f"symqkd.{name.split('.')[0]}")
