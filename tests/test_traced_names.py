"""Every function the benchmark's traced run patches is still in the program.

``bench/tracing.py`` names its targets as (module, attribute) pairs; a renamed
or deleted one would only fail when a traced run installs its wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr,span", tracing.TRACED, ids=[t[2] for t in tracing.TRACED])
def test_every_traced_name_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{span}: {module}.{attr} is not a function of the program"
