"""The one code generator: where generated code is compiled, and how its
source shows to ``inspect`` and in tracebacks.

This process has ``linecache`` loaded long before ``biquat``, so every
generated function's text is in ``linecache.cache``.  The fresh-process
case, ``linecache`` loaded after ``import biquat``, is in test_package.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import pytest

from biquat import _codegen, entanglement, exact, quaternion, verify
from biquat.exact import STRUCTURE, ExactBiQuat
from biquat.quaternion import Quat
from biquat.verify import ENTANGLE_CASES


# The sweep's kernel key: rotors on {1,3}, states on {1,2}.
_SWEEP_KEY = entanglement._key((1, 3), (1, 2))
# The kernel keys of the eight pairings the law covers, pm << 4 | qm.
_LAW_MASKS = [masks for masks, verdict in enumerate(entanglement._VERDICT)
              if verdict == entanglement._LAW]


def _generated():
    """Every function the package generates, the 8 closed forms, the
    sweep's concurrence kernel and entangle's 8 law kernels too."""
    return [exact.oracle_mul, *exact._CONJUGATIONS.values(),
            entanglement._kernel(_SWEEP_KEY, concurrence=True),
            *map(entanglement._kernel, _LAW_MASKS),
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
    entanglement._kernel.__wrapped__(_SWEEP_KEY, concurrence=True)
    for masks in _LAW_MASKS:
        entanglement._kernel.__wrapped__(masks)
    for case in ENTANGLE_CASES:
        verify._compiled.__wrapped__(case.closed_form, *case.p_support)
    shown = {}
    for f in functions:
        source = inspect.getsource(f)
        shown.setdefault((f.__module__, f.__name__), []).append(source)
        code = compile(source, f.__code__.co_filename, "exec")
        assert f.__code__ in code.co_consts
    assert shown == texts
    assert len(texts) == 7 and len(texts["biquat.verify", "closed_form"]) == 8
    assert len(texts["biquat.entanglement", "_law_pqp"]) == 8


def test_each_generated_function_has_its_own_file_name():
    functions = _generated()
    names = [f.__code__.co_filename for f in functions]
    assert len(set(names)) == len(names) == 21
    for f, name in zip(functions, names):
        assert re.fullmatch(rf"<{re.escape(f.__module__)}\.{f.__name__}#\d+>",
                            name), name


def test_generated_functions_keep_their_module_and_name():
    assert [(f.__module__, f.__name__) for f in _generated()] == [
        ("biquat.exact", "oracle_mul"), ("biquat.exact", "conj_complex"),
        ("biquat.exact", "conj_quaternion"),
        ("biquat.exact", "conj_hermitian"),
        ("biquat.entanglement", "_pqp_concurrence"),
        *[("biquat.entanglement", "_law_pqp")] * 8,
        *[("biquat.verify", "closed_form")] * 8]


def test_sweep_kernel_reads_only_the_parts_on_its_supports():
    kernel = entanglement._kernel(_SWEEP_KEY, concurrence=True)
    source = inspect.getsource(kernel)
    names = {node.id for node in ast.walk(ast.parse(source))
             if type(node) is ast.Name}
    assert {"p1", "p3", "q1", "q2"} <= names
    assert not names & {"p2", "p4", "q3", "q4"}
    assert not {"p2", "p4", "q3", "q4"} & set(kernel.__code__.co_varnames)
    assert source.splitlines()[-1] == "    return (2.0*abs(((c1*c4)-(c2*c3))))"


def test_trace_writes_hamiltons_sums_as_written():
    # With full supports the first product drops nothing: each r line is
    # one of hamilton's sums, with its order, signs and factor order.
    lines, _ = entanglement._trace((1, 2, 3, 4), (1, 2, 3, 4))
    sums = re.findall(r"^ +(p1 \* q.*),$",
                      inspect.getsource(quaternion.hamilton), re.M)
    assert len(sums) == 4
    assert [re.sub(r"[() ]", "", line) for line in lines] == [
        f"r{k}={text.replace(' ', '')}" for k, text in enumerate(sums, 1)]


def test_law_kernels_keep_12_of_the_32_products():
    def products(f):
        return sum(type(node) is ast.BinOp and type(node.op) is ast.Mult
                   for node in ast.walk(ast.parse(inspect.getsource(f))))
    def mask(support):
        return sum(1 << (k - 1) for k in support)
    # The trace of bmul(bmul(p, q), p) on full supports drops nothing.
    lines, pqp = entanglement._trace((1, 2, 3, 4), (1, 2, 3, 4))
    assert sum(text.count("*") for text in [*lines, *pqp]) == 32
    assert _LAW_MASKS == sorted(
        mask(case.p_support) << 4 | mask(case.variant.positions)
        for case in ENTANGLE_CASES)
    for masks in _LAW_MASKS:
        assert products(entanglement._kernel(masks)) == 12


def test_importing_the_cli_compiles_no_kernel_and_loads_no_csv():
    code = ("import json, sys, biquat.cli\n"
            "from biquat import _codegen, entanglement\n"
            "print(json.dumps([sorted(_codegen._SOURCES),\n"
            "    entanglement._kernel.cache_info().currsize,\n"
            "    'csv' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(exact.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-"], input=code, env=env,
                         capture_output=True, text=True, check=True)
    sources, kernels, csv_loaded = json.loads(out.stdout)
    assert (sources, kernels, csv_loaded) == ([], 0, False)


def test_every_kernel_compiles_with_warnings_as_errors():
    # Kernels compile on first use, so no import compiles them: each one
    # _kernel serves, the product and the concurrence kernel of each of
    # the eight pairings the law covers, compiles afresh here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels = [entanglement._kernel.__wrapped__(masks, concurrence)
                   for masks in _LAW_MASKS for concurrence in (False, True)]
    assert len(_LAW_MASKS) == 8
    assert [f.__name__ for f in kernels] == [
        "_law_pqp", "_pqp_concurrence"] * 8


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


@pytest.mark.parametrize("form, support, numerators, k", [
    (ENTANGLE_CASES[0].closed_form, (1, 3),
     "x0*x4*x4 - x0*x5*x5, x2*x4*x4 + x2*x5*x5, 2*x0*x4*x5, 0, "
     "x1*x4*x4 - x1*x5*x5, x3*x4*x4 + x3*x5*x5, 2*x1*x4*x5, 0", 3),
    ("(-alpha, 0, 3*beta*a2 - 2, -a2^0)", (2, 4),
     "-x0*D, 0, 3*x2*x4 - 2*D*D, -D*D, -x1*D, 0, 3*x3*x4, 0", 2),
    ("(1, -1, 0^0, -7)", (1, 3), "1, -1, 1, -7, 0, 0, 0, 0", 0),
], ids=["case-1", "mixed-degrees", "constants"])
def test_closed_form_source_is_one_sum_of_monomials_per_numerator(
        form, support, numerators, k):
    # Each monomial of degree d is scaled by D**(k - d); a coefficient of
    # 1 or -1 is written as a sign alone.
    source = inspect.getsource(verify._compiled(form, *support))
    assert source.splitlines()[-1] == (
        f"    return _reduced(({numerators}), D ** {k})")


@pytest.mark.parametrize("f, args, error", [
    (exact.oracle_mul, (ExactBiQuat((1,) * 8), None), AttributeError),
    (entanglement._kernel(_SWEEP_KEY, concurrence=True),
     (Quat(1.0, 0.0, 0.0, 0.0), (None, 0j, 0j, 0j)), TypeError),
])
def test_a_fault_in_generated_code_shows_its_source_line(f, args, error):
    with pytest.raises(error) as info:
        f(*args)
    frame = traceback.extract_tb(info.value.__traceback__)[-1]
    assert frame.filename == f.__code__.co_filename
    line = inspect.getsource(f).splitlines()[frame.lineno - 1].strip()
    assert frame.line == line != ""
    assert f"\n    {line}\n" in "".join(traceback.format_exception(info.value))
