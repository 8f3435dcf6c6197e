"""The one compile site: the straight-line code the package generates,
and the syntax trees of the closed-form texts the verifier reads."""

import sys

_SOURCES = {}


def function(module: str, name: str, lines, **names):
    """The function ``name`` that the source ``lines`` define, with
    ``module`` as its ``__name__`` and ``names`` as its other globals.

    Its file name, ``<module.name#serial>``, is its own, and its text a
    linecache entry with mtime None, which ``checkcache`` keeps.  This
    module never loads ``linecache`` (with ``tokenize``, a start-up cost):
    each call copies every entry so far into ``linecache.cache`` if it is
    loaded, so an earlier function's source shows after the next call.
    """
    source = "\n".join(lines) + "\n"
    filename = f"<{module}.{name}#{len(_SOURCES) + 1}>"
    _SOURCES[filename] = (len(source), None, source.splitlines(True), filename)
    if "linecache" in sys.modules:
        sys.modules["linecache"].cache.update(_SOURCES)
    namespace = {"__name__": module, **names}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def parse(text: str, filename: str):
    """The syntax tree of the expression ``text``, as ``ast.parse`` in
    ``"eval"`` mode gives it, without loading ``ast``.  Only the verifier
    parses, so ``_ast`` is imported here, not at every start-up."""
    from _ast import PyCF_ONLY_AST
    return compile(text, filename, "eval", PyCF_ONLY_AST, dont_inherit=True)
