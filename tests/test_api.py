"""The exported names: every name in an ``__all__`` resolves, so a name
deleted from a module cannot linger in its own or the package's list, the
functions that the benchmark's tracer looks up stay traceable, and every
Python block of README.md runs."""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import twoqubit

MODULES = ["twoqubit"] + [
    f"twoqubit.{m.name}" for m in pkgutil.iter_modules(twoqubit.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # raises AttributeError on a stale name
    assert set(exported) <= set(namespace)


def test_package_exports_every_readme_name():
    assert len(set(twoqubit.__all__)) == len(twoqubit.__all__)
    for name in ("canonical_point", "invariants_from_unitary", "is_perfect_entangler",
                 "schmidt_decompose", "SchmidtData", "locally_equivalent", "ClassData"):
        assert name in twoqubit.__all__


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # the figure block writes fig5b.svg into the working directory
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out.startswith("param,")


def test_readme_audit_quote_is_the_call():
    # the quick tour's comment on run_audit(1000, 42).checks[0]
    from twoqubit import run_audit

    text = README.read_text()
    quote = re.search(r"value=(\S+),\s+#\s+tolerance=1e-09, where=(\d+), detail='max\s+#\s+"
                      r"deviation (\S+) \(tol 1e-09\)'\)", text[text.index("audit.checks[0]"):])
    check = run_audit(1000, 42).checks[0]
    assert quote.groups() == (f"{check.value:.2e}", str(check.where), f"{check.value:.3e}")


# the functions that perfbench's tracer looks up by name; it wraps a layer's
# public functions, and only those defined in the layer's own module
TRACED = ["canonical.canonical_points_array", "schmidt.schmidt_coefficients_array",
          "schmidt.z_from_point_array", "schmidt.schmidt_number_from_coefficients",
          "invariants.invariants_from_unitary_array", "edges.sweep", "cli.build_parser"]


@pytest.mark.parametrize("qualname", TRACED)
def test_traced_name_is_a_public_function_of_its_module(qualname):
    layer, name = qualname.split(".")
    module = importlib.import_module(f"twoqubit.{layer}")
    fn = getattr(module, name)
    assert inspect.isfunction(fn) and not name.startswith("_")
    assert fn.__module__ == module.__name__


def test_cli_sweeps_with_the_edges_sweep():
    import twoqubit.cli
    import twoqubit.edges

    assert twoqubit.cli.sweep is twoqubit.edges.sweep
