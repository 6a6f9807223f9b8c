"""The benchmark tracer's targets still exist in the package.

``perfbench/tracing.py`` wraps package functions by module and name, so a
deleted or renamed one would only show when a traced benchmark run
(``perfbench/run.py --trace 1``) crashes.  These tests load the tracer from
its file, without installing it, and resolve every name it wraps; the
score-class table it counts ``testfam.score`` results by is checked the
same way.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()
FUNCTIONS = TRACING_MODULE.FUNCTIONS


@pytest.mark.parametrize("span", sorted(FUNCTIONS))
def test_traced_functions_exist(span):
    mod_name, attrs = FUNCTIONS[span]
    module = importlib.import_module(mod_name)
    for attr in attrs:
        assert callable(getattr(module, attr)), f"{mod_name}.{attr}"


def test_traced_engine_methods_exist():
    estimator = importlib.import_module("pairfit.estimator")
    assert callable(estimator.as_model)
    engine = estimator.PairwiseEngine
    # The tracer calls the original ``__init__(self, spec, model)`` positionally.
    assert list(inspect.signature(vars(engine)["__init__"]).parameters) == ["self", "spec", "model"]
    assert callable(vars(engine)["statistic_matrix"])


def test_score_classes_are_the_concrete_score_functions():
    # ``summarize`` indexes ``SCORE_CLASSES`` by the class name of each
    # ``testfam.score`` result, so a missing name would raise ``KeyError``.
    testfam = importlib.import_module("pairfit.testfam")
    concrete = {
        name
        for name, cls in vars(testfam).items()
        if inspect.isclass(cls)
        and issubclass(cls, testfam.ScoreFunction)
        and cls is not testfam.ScoreFunction
    }
    assert set(TRACING_MODULE.SCORE_CLASSES) == concrete
