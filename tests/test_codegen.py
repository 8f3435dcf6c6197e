"""The one code generator: where generated code is compiled, and how its
source shows to ``inspect`` and in tracebacks.

This process has ``linecache`` loaded long before ``biquat``, so every
generated function's text is in ``linecache.cache``.  The fresh-process
case, ``linecache`` loaded after ``import biquat``, is in test_package.
"""

import ast
import inspect
import re
import traceback
from pathlib import Path

import pytest

from biquat import _codegen, entanglement, exact, verify
from biquat.exact import STRUCTURE, ExactBiQuat
from biquat.quaternion import Quat
from biquat.verify import ENTANGLE_CASES


def _generated():
    """Every function the package generates, the 8 closed forms too."""
    return [exact.oracle_mul, *exact._CONJUGATIONS.values(),
            entanglement._sandwich,
            *(verify._compiled(case.closed_form, *case.p_support)
              for case in ENTANGLE_CASES)]


def test_only_the_code_generator_compiles():
    callers = set()
    for path in Path(exact.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (type(node) is ast.Call and type(node.func) is ast.Name
                    and node.func.id in ("exec", "compile", "eval")):
                callers.add(path.name)
    assert callers == {"_codegen.py"}


def test_source_of_each_generated_function_is_its_generated_text(
        monkeypatch):
    # Each generator runs again, its text recorded on the way to the one
    # helper; the source shown for the function bound at import must be
    # that text, and must compile to that function's code.
    functions, texts = _generated(), {}
    helper = _codegen.function

    def record(module, name, lines, **names):
        texts.setdefault((module, name), []).append("\n".join(lines) + "\n")
        return helper(module, name, lines, **names)

    monkeypatch.setattr(_codegen, "function", record)
    exact._generate_product(STRUCTURE)
    exact._generate_conjugations(exact._CONJ_FLIPS)
    entanglement._generate_sandwich()
    for case in ENTANGLE_CASES:
        verify._compiled.__wrapped__(case.closed_form, *case.p_support)
    shown = {}
    for f in functions:
        source = inspect.getsource(f)
        shown.setdefault((f.__module__, f.__name__), []).append(source)
        code = compile(source, f.__code__.co_filename, "exec")
        assert f.__code__ in code.co_consts
    assert shown == texts
    assert len(texts) == 6 and len(texts["biquat.verify", "closed_form"]) == 8


def test_each_generated_function_has_its_own_file_name():
    functions = _generated()
    names = [f.__code__.co_filename for f in functions]
    assert len(set(names)) == len(names) == 13
    for f, name in zip(functions, names):
        assert re.fullmatch(rf"<{re.escape(f.__module__)}\.{f.__name__}#\d+>",
                            name), name


def test_generated_functions_keep_their_module_and_name():
    assert [(f.__module__, f.__name__) for f in _generated()] == [
        ("biquat.exact", "oracle_mul"), ("biquat.exact", "conj_complex"),
        ("biquat.exact", "conj_quaternion"),
        ("biquat.exact", "conj_hermitian"),
        ("biquat.entanglement", "_sandwich"),
        *[("biquat.verify", "closed_form")] * 8]


@pytest.mark.parametrize("form, support", [
    *((case.closed_form, case.p_support) for case in ENTANGLE_CASES),
    # Whitespace, tabs and a line continuation inside the text.
    ("( alpha ,\n\tbeta\r\n, 0,  0 )", (1, 3)),
    ("(alpha, \\\n  -beta, a2^2, 0)", (2, 4)),
])
def test_closed_form_docstring_is_its_text(form, support):
    i, j = support
    f = verify._compiled(form, i, j)
    assert f.__doc__ == (
        f"Exact value of {form!r} at (alpha, beta, a{i}, a{j}).")


@pytest.mark.parametrize("f, args, error", [
    (exact.oracle_mul, (ExactBiQuat((1,) * 8), None), AttributeError),
    (entanglement._sandwich, (Quat(1.0, 0.0, 0.0, 0.0), (None, 0j, 0j, 0j)),
     TypeError),
])
def test_a_fault_in_generated_code_shows_its_source_line(f, args, error):
    with pytest.raises(error) as info:
        f(*args)
    frame = traceback.extract_tb(info.value.__traceback__)[-1]
    assert frame.filename == f.__code__.co_filename
    line = inspect.getsource(f).splitlines()[frame.lineno - 1].strip()
    assert frame.line == line != ""
    assert f"\n    {line}\n" in "".join(traceback.format_exception(info.value))
