"""Command-line interface: the ``biquat`` entry point.

The grammar is written once, in ``_COMMANDS``: ``_read_argv`` reads
every argv from it, and ``_help`` writes the help and usage text from it
and from ``_DESCRIPTION``, which holds what the table cannot say.

Text crosses the boundary at C speed, and ``complex()`` reads every
comma-form value.  When one match of ``_RE_PLAIN`` finds only ASCII
digits, ".", "e", "E", signs, spaces, tabs, line ends (LF, CR) and
commas, with an "i" only right after a digit or a point,
``parse_biquat`` hands each piece to ``complex()`` with "j" for "i",
and four finite values are the result; so does a text read from
standard input with its newline.  Any other text, a piece ``complex()``
refuses or a non-finite value takes one pass over the pieces, in which
the one literal pattern, ``_RE_COMPLEX``, only decides acceptance: it
alone takes the gap forms ("- 1", "0.5 + 0.5 i") and non-ASCII digits.
A piece it accepts, stripped and with its blanks dropped, goes to
``complex()`` too; the first piece refused or non-finite is the fault.
Over ``_RE_PLAIN``'s characters ``complex()`` accepts exactly the
gap-free literals ``_RE_COMPLEX`` accepts: "j", "_", "nan", "inf" and
parentheses cannot occur, the "i" rule shuts out the forms with a bare
unit, "i", "+i" and "1+i", and both strip a line end around a literal
and refuse one inside it.  So the first pass keeps only what the second
would keep, with the same bits from the same reader.  ``complex()``
reads each number with ``float()``'s correctly rounded conversion,
Unicode digits included, and applies its sign, so "-0i" is
``complex(0.0, -0.0)``.

A biquaternion's JSON form is ``json_form``'s, float entries with a
zero's sign kept, in ``format_biquat``'s JSON style and every report.
Every ``--json`` report with an indent is written by ``_json_text``,
which gives ``json.dumps(obj, indent=2)`` byte for byte.  Up to Python
3.12, ``json`` writes any indented text with its pure-Python encoder,
which ``_json_text`` outruns; from 3.13 the C encoder takes an indent
too and is the faster of the two.

``sweep`` writes its CSV without ``csv``: no field can hold a comma, a
quote, CR or LF, so a row is its fields joined by commas and ended by
CRLF, the bytes ``csv.writer`` writes.  Each row's concurrence comes
from the kernel ``entanglement`` traces from ``bmul`` for rotors on
{1,3} and V12 states, compiled on a process's first sweep.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace

from .biquaternion import BiQuat, from_quat, is_real, json_form, real_part
from .entanglement import (RestrictionError, StateAmp, Variant, _kernel,
                           _key, check_restrictions, concurrence,
                           embed_state, entangle)
from .quaternion import DEFAULT_TOL, Quat, _new, polar
from .rotations import (complex_rotation, conjugate_rotation, lorentz_map,
                        rotate_biquat, rotate_onesided)

__all__ = ["ParseError", "parse_biquat", "parse_quat", "format_biquat",
           "format_complex", "main"]

_DESCRIPTION = """\
A biquaternion is written as four comma-separated complex literals
("0.5+0.5i, -0.5i, 0, 1"), or as a JSON object {"re": [...], "im":
[...]}; a quaternion is the same with real entries.  "-" makes
concurrence read its argument from stdin.  --json switches any command
to structured output.

Exit codes: 0 success, 1 parse or usage error, 2 restriction rejection,
3 verification failure."""


class ParseError(ValueError):
    """Malformed input text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_GAP = r"[ \t]*"
# The one pattern for a comma-separated piece, in the three literal forms
# a, bi and a+bi.  Around the literal it takes the whitespace str.strip()
# drops; inside it, spaces and tabs between a sign, a number and the "i",
# never inside a number.  Each gap is bound to the token after it, so
# refused text costs linear time.
_RE_COMPLEX = re.compile(
    rf"\s*(?:[+-]{_GAP})?{_UNSIGNED}"
    rf"(?:{_GAP}(?:[+-]{_GAP}{_UNSIGNED}{_GAP})?i)?\s*\Z")


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name}")


def _unique_keys(pairs: list) -> dict:
    # A JSON object, at any depth, as a dict; a repeated key is refused.
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"repeated JSON key {_encode_str(key)}")
        obj[key] = value
    return obj


# What json.loads(text, parse_int=float, ...) builds on every call, built
# once.  float reads an integer as in the comma form, -0 as -0.0 and any
# number of digits (int refuses over sys.get_int_max_str_digits()).
# (json.loads also refuses a leading BOM, but such text never reaches the
# JSON form: it does not start with "{".)
_JSON_DECODER = json.JSONDecoder(parse_int=float,
                                 parse_constant=_reject_constant,
                                 object_pairs_hook=_unique_keys)


def _parse_json_biquat(text: str) -> BiQuat:
    try:
        obj = _JSON_DECODER.decode(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    except RecursionError:  # the decoder recurses once per nested level
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ParseError('JSON form needs exactly the keys "re" and "im"')
    re_, im = obj["re"], obj["im"]
    if (not isinstance(re_, list) or not isinstance(im, list)
            or len(re_) != 4 or len(im) != 4):
        raise ParseError('"re" and "im" must be arrays of 4 numbers')
    # Every JSON number is a float, so type() refuses bool, str and the rest.
    if not {*map(type, re_), *map(type, im)} <= {float}:
        raise ParseError('"re" and "im" entries must be numbers')
    q = _new(BiQuat, map(complex, re_, im))
    if not all(map(cmath.isfinite, q)):
        raise ParseError("non-finite number")
    return q


# The characters of a comma form complex() reads as _RE_COMPLEX does: a
# class repetition, since a per-character alternation costs more than the
# reader it stands in front of.
_RE_PLAIN = re.compile(
    r"[0-9.eE+\- \t\n\r,]*(?:(?<=[0-9.])i[0-9.eE+\- \t\n\r,]*)*\Z")


def parse_biquat(text: str) -> BiQuat:
    """Parse the comma-separated or JSON form of a biquaternion.
    Whitespace may stand around a literal and between its sign, number
    and ``i``, never inside a number.

    Text that ``_RE_PLAIN`` matches, a comma form of ASCII literals
    with blanks and line ends around them, is read by ``complex()``, one
    call per piece, and kept when there are four pieces and every value
    is finite.  Everything else, and every text that pass declines, goes
    piece by piece: ``_RE_COMPLEX``, which alone takes blanks inside a
    literal, accepts or refuses the piece, and ``complex()`` reads an
    accepted one with its blanks dropped.  The first piece, left to
    right, that is refused or non-finite is named with the position of
    its first non-blank character (see the module docstring)."""
    if _RE_PLAIN.match(text):
        try:
            parts = [*map(complex, text.replace("i", "j").split(","))]
        except ValueError:
            pass
        else:
            if len(parts) == 4 and all(map(cmath.isfinite, parts)):
                return _new(BiQuat, parts)
    if text.lstrip().startswith("{"):
        return _parse_json_biquat(text)
    pieces = text.split(",")
    if len(pieces) != 4:
        raise ParseError(f"expected 4 components, found {len(pieces)}")
    parts = []
    start = 0
    for piece in pieces:
        position = start + len(piece) - len(piece.lstrip())
        start += len(piece) + 1
        stripped = piece.strip()
        token = stripped.replace(" ", "").replace("\t", "")
        if _RE_COMPLEX.match(piece):
            c = complex(token.replace("i", "j"))
            if not cmath.isfinite(c):  # 1e999 overflows to inf
                raise ParseError("non-finite number", position)
            parts.append(c)
        elif _RE_COMPLEX.match(token):
            # Only spaces and tabs stand between the piece and a literal,
            # at places where they would split a number: "1 2", "1e 3".
            raise ParseError(f"whitespace inside a number in {stripped!r}",
                             position)
        else:
            raise ParseError(f"malformed complex literal {token!r}",
                             position)
    return _new(BiQuat, parts)


def parse_quat(text: str) -> Quat:
    """Parse a real quaternion (a biquaternion with no imaginary parts)."""
    return _require_real(parse_biquat(text),
                         "expected a real quaternion, found imaginary parts")


def _require_real(q: BiQuat, message: str) -> Quat:
    if not is_real(q, 0.0):
        raise ParseError(message)
    return real_part(q)


def _fmt_float(x: float) -> str:
    # repr round-trips; an integral float below 1e16, either zero too, as int.
    return repr(int(x) if x.is_integer() and abs(x) < 1e16 else x)


def format_complex(c: complex) -> str:
    """Render one complex number as ``parse_biquat`` reads it back.
    ValueError for a non-finite real or imaginary part."""
    c = complex(c)
    if not cmath.isfinite(c):
        raise ValueError(f"non-finite complex number {c}")
    return _literal(c)


def _literal(c: complex) -> str:
    # format_complex for a complex c its caller has found finite.
    if c.imag == 0.0:
        return _fmt_float(c.real)
    if c.real == 0.0:
        return _fmt_float(c.imag) + "i"
    sign = "+" if c.imag > 0 else "-"
    return f"{_fmt_float(c.real)}{sign}{_fmt_float(abs(c.imag))}i"


def format_biquat(q: BiQuat, style: str = "plain") -> str:
    """Render a biquaternion; the plain style parses back bit-exactly but
    for a zero's sign: ``-0.0`` prints as ``0`` and comes back as ``0.0``.
    The JSON style, ``json.dumps(json_form(q))``, keeps a zero's sign.
    ValueError for a non-finite part, which no style could parse back."""
    for k, c in enumerate(q, 1):
        if not cmath.isfinite(c):
            raise ValueError(f"non-finite part c{k} = {complex(c)}")
    if style == "plain":
        return ", ".join([_literal(complex(c)) for c in q])
    if style == "json":
        return json.dumps(json_form(q))
    if style == "unicode":
        c1, *rest = [_literal(complex(c)) for c in q]
        return " + ".join([c1] + [f"({lit}){u}" for lit, u in
                                  zip(rest, ("î", "ĵ", "k̂"))])
    raise ValueError(f"unknown style: {style!r}")


def _json_float(x: float) -> str:
    # json's float rule: repr, but NaN and the infinities by name.
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# json's text of a leaf, by exact type: no report holds a subclass.
_JSON_LEAF = {str: _encode_str, float: _json_float, int: int.__repr__,
              bool: {True: "true", False: "false"}.__getitem__,
              type(None): lambda o: "null"}


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for what a report
    holds: lists and dicts of leaves written by ``_JSON_LEAF``, a
    biquaternion's ``json_form`` with its zeros' signs among them, ASCII
    escapes by ``encode_basestring_ascii`` and keys in the dict's order.
    TypeError for any other value, a subclass included, and for any key
    but a str (json writes both).  Circular references are not looked
    for.  It beats ``json.dumps`` where that runs its pure-Python encoder
    for an indent, up to 3.12; from 3.13 the C encoder takes the indent
    and ``json.dumps`` is about twice as fast."""
    out = []
    emit = out.append

    def value(o, indent):
        # indent is a newline and two spaces per enclosing container.
        kind = type(o)
        leaf = _JSON_LEAF.get(kind)
        if leaf is not None:
            emit(leaf(o))
        elif kind is list:
            if not o:
                emit("[]")
                return
            inner = indent + "  "
            sep = "[" + inner
            for item in o:
                emit(sep)
                value(item, inner)
                sep = "," + inner
            emit(indent + "]")
        elif kind is dict:
            if not o:
                emit("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for key, item in o.items():
                emit(sep)
                emit(_encode_str(key))
                emit(": ")
                value(item, inner)
                sep = "," + inner
            emit(indent + "}")
        else:
            raise TypeError(f"Object of type {kind.__name__} "
                            f"is not JSON serializable")

    value(obj, "\n")
    return "".join(out)


# --- command handlers -------------------------------------------------

def _cmd_entangle(ns) -> int:
    p = parse_quat(ns.p)
    q = parse_biquat(ns.q)
    try:
        out = entangle(p, q)
    except RestrictionError as e:
        if ns.json:
            print(_json_text({"rejected": True,
                              "report": e.report.to_dict()}))
        else:
            _print_report(e.report, "rejected: " + e.report.detail)
        return 2
    if ns.json:
        print(_json_text(out.to_dict()))
    else:
        before = _fmt_float(out.concurrence_before)
        after = _fmt_float(out.concurrence_after)
        _print_report(out.report, "result: " + format_biquat(out.result),
                      f"concurrence before: {before}",
                      f"concurrence after: {after}")
    return 0


def _cmd_concurrence(ns) -> int:
    if ns.state != "-":
        text = ns.state
    elif sys.stdin is None:  # fd 0 was closed when Python started
        raise ValueError("standard input is closed")
    else:
        text = sys.stdin.read()
    c = concurrence(parse_biquat(text))
    if ns.json:
        print(json.dumps({"concurrence": c}))
    else:
        print(_fmt_float(c))
    return 0


def _print_report(report, *head: str) -> None:
    # The lines head, then the report, in one print.
    r1, r2, r3 = ("pass" if ok else "FAIL" for ok in
                  (report.r1_pass, report.r2_pass, report.r3_pass))
    print("\n".join([
        *head, f"R1: {r1}", f"R2: {r2}", f"R3: {r3}",
        f"rotor support: {sorted(report.p_support)}   "
        f"state support: {sorted(report.q_support)}",
        f"rotor concurrence: {_fmt_float(report.concurrence_p)}",
        f"detail: {report.detail}"]))


def _cmd_check(ns) -> int:
    report = check_restrictions(parse_quat(ns.p), parse_biquat(ns.q))
    if ns.json:
        print(_json_text(report.to_dict()))
    else:
        _print_report(report)
    return 0 if report.passed else 2


def _cmd_rotate(ns) -> int:
    qb = parse_biquat(ns.q)
    xb = parse_biquat(ns.x)
    kind = ns.map
    if kind in ("left", "right", "conj"):
        q = _require_real(qb, "--q must be a real quaternion for this map")
        x = _require_real(xb, "--x must be a real quaternion for this map")
        result = from_quat(conjugate_rotation(q, x) if kind == "conj"
                           else rotate_onesided(q, x, kind))
    elif kind == "psi":
        result = rotate_biquat(qb, xb)
    elif kind == "lorentz":
        result = lorentz_map(qb, xb)
    else:  # mu
        result = complex_rotation(qb, xb)
    # Finite inputs can still overflow partway through a float sum, even
    # where the true result is finite: refuse the result, never print it.
    if not all(map(cmath.isfinite, result)):
        raise ValueError("non-finite result: the float computation "
                         "overflowed")
    if ns.json:
        print(_json_text({"map": kind, "result": json_form(result)}))
    else:
        print(", ".join([_literal(c) for c in result]))
    return 0


def _cmd_polar(ns) -> int:
    form = polar(parse_quat(ns.value))
    if ns.json:
        print(_json_text({"magnitude": form.magnitude,
                          "axis": list(form.axis),
                          "angle": form.angle,
                          "degenerate": form.degenerate}))
    else:
        axis = ", ".join([_fmt_float(a) for a in form.axis])
        print(f"magnitude: {_fmt_float(form.magnitude)}\n"
              f"angle: {_fmt_float(form.angle)}\n"
              f"axis: {axis}\n"
              f"degenerate: {'yes' if form.degenerate else 'no'}")
    return 0


def _cmd_verify_theorem(ns) -> int:
    from . import verify  # the exact route loads only to verify
    report = verify.verify_theorem(samples=ns.samples, seed=ns.seed)
    print(_json_text(report.to_dict()) if ns.json else report.to_text())
    return 0 if report.all_pass else 3


def _cmd_verify_examples(ns) -> int:
    from . import verify
    report = verify.verify_examples()
    print(_json_text(report.to_dict()) if ns.json else report.to_text())
    return 0 if report.all_pass else 3


def _cmd_sweep(ns) -> int:
    n = ns.grid
    if n < 1:
        raise ParseError("--grid must be at least 1")
    half_pi = math.pi / 2.0
    mix = [half_pi * k / (n - 1) for k in range(n)] if n > 1 else [half_pi / 2]
    phase = [2.0 * math.pi * k / n for k in range(n)]
    # Rotors on {1,3} and V12 states are unit by construction: each row
    # runs the kernel _concurrence(bmul(bmul(p, q), p)) traced for them,
    # which gives its bits (see entanglement._kernel).
    kernel = _kernel(_key((1, 3), Variant.V12.positions), concurrence=True)
    rotors = [(Quat(ai, 0.0, aj, 0.0), f"{ai!r},{aj!r},")
              for ai, aj in ((math.cos(t), math.sin(t)) for t in mix)]
    threshold = 1.0 - DEFAULT_TOL

    rows = len(mix) * len(phase) ** 2 * len(rotors)
    maximal = 0
    out = sys.stdout if ns.out == "-" else open(ns.out, "w", newline="")
    try:
        # One write per state streams the N^4 rows.
        out.write("alpha,beta,a_i,a_j,concurrence,maximal\r\n")
        for tq in mix:
            ma, mb = math.cos(tq), math.sin(tq)
            betas = [mb * complex(math.cos(pb), math.sin(pb)) for pb in phase]
            beta_texts = [_literal(beta) for beta in betas]
            for pa in phase:
                alpha = ma * complex(math.cos(pa), math.sin(pa))
                alpha_text = _literal(alpha)
                for beta, beta_text in zip(betas, beta_texts):
                    qv = embed_state(StateAmp(alpha, beta, Variant.V12))
                    state_text = f"{alpha_text},{beta_text},"
                    lines = []
                    for p, rotor_text in rotors:
                        c = kernel(p, qv)
                        is_max = c >= threshold
                        maximal += is_max
                        lines.append(f"{state_text}{rotor_text}{c!r},"
                                     f"{1 if is_max else 0}\r\n")
                    out.write("".join(lines))
    finally:
        if out is not sys.stdout:
            out.close()
    if ns.json:
        print(json.dumps({"rows": rows, "maximal_rows": maximal,
                          "out": ns.out}))
    elif ns.out != "-":
        print(f"wrote {rows} rows ({maximal} maximal) to {ns.out}")
    return 0


# The command grammar: name -> (help, arguments), each argument a name
# and its add_argument keywords; a name without "--" is the positional.
# Every command also takes -h/--help and --json.  main finds the handler,
# "_cmd_" + the name with "_" for "-", at call time, so a rebinding counts.
_COMMANDS = {
    "entangle": ("run the checked entangling map", (
        ("--p", {"required": True, "metavar": "QUAT",
                 "help": "real unit rotor quaternion"}),
        ("--q", {"required": True, "metavar": "BIQUAT",
                 "help": "embedded product state"}))),
    "concurrence": ("concurrence of a normalized state", (
        ("state", {"metavar": "BIQUAT", "help": "state, or - for stdin"}),)),
    "check": ("evaluate restrictions R1-R3 only", (
        ("--p", {"required": True, "metavar": "QUAT"}),
        ("--q", {"required": True, "metavar": "BIQUAT"}))),
    "rotate": ("apply a rotation map", (
        ("--map", {"required": True, "metavar": "MAP", "choices": (
            "left", "right", "conj", "psi", "lorentz", "mu")}),
        ("--q", {"required": True, "metavar": "(BI)QUAT"}),
        ("--x", {"required": True, "metavar": "(BI)QUAT"}))),
    "polar": ("polar decomposition of a quaternion", (
        ("value", {"metavar": "QUAT"}),)),
    "verify-theorem": (
        "verify the eight-case entangling law (exit 3 on failure)", (
            ("--samples", {"type": int, "default": 1000,
                           "help": "float-law samples per case "
                                   "(default 1000)"}),
            ("--seed", {"type": int, "default": 7,
                        "help": "seed for the float-law samples "
                                "(default 7)"}))),
    "verify-examples": (
        "recompute the three golden examples (exit 3 on failure)", ()),
    "sweep": ("CSV concurrence sweep over an N^4 grid", (
        ("--grid", {"type": int, "default": 5, "metavar": "N",
                    "help": "points per axis (default 5)"}),
        ("--out", {"default": "-", "metavar": "PATH",
                   "help": "output file, - for stdout (default)"}))),
}


def _reader_grammar():
    """command (None: the top level) -> (defaults, option -> entry, the
    arguments' entries, each required unless defaulted, the positional's
    entry); an entry is (dest, name, type, choices)."""
    flags = {"--json": ("json", "--json", None, None)}
    flags["-h"] = flags["--help"] = ("help", "-h/--help", None, None)
    command = ("command", "command", None, tuple(_COMMANDS))
    grammar = {None: ({}, flags, (command,), command)}
    for name, (_, arguments) in _COMMANDS.items():
        defaults, options, entries, positional = {}, dict(flags), [], None
        for flag, keywords in arguments:
            if flag.startswith("--"):
                entry = options[flag] = (flag[2:], flag, keywords.get("type"),
                                         keywords.get("choices"))
                if not keywords.get("required"):
                    defaults[flag[2:]] = keywords.get("default")
            else:
                entry = positional = (flag, keywords["metavar"], None, None)
            entries.append(entry)
        grammar[name] = (defaults, options, tuple(entries), positional)
    return grammar


_GRAMMAR = _reader_grammar()


class _Stop(Exception):
    """args: the namespace read so far, and the usage error (None: help)."""


def _read_argv(argv) -> dict:
    """The namespace of ``argv``: ``command``, ``json`` and the command's
    arguments.  Before the first ``--``, ``-h`` or a ``--help`` form asks
    for help, ``--json`` may stand anywhere, and ``--name value`` or
    ``--name=value`` sets an option by its name or a unique prefix, the
    value being the next token unless that is ``-h`` or ``--``-led.  Any
    other token, ``-1,0,0,0`` say, and every token after the first
    ``--`` is positional: the command, then its own.  Reading left to
    right, _Stop(ns, error) ends at help or the first usage error, but
    unrecognized and missing arguments are reported at the end."""
    _, options, arguments, positional = _GRAMMAR[None]
    ns = {"json": False}
    extras, literal = [], False  # literal: after the first "--"
    tokens = iter(argv)
    for token in tokens:
        value = None
        option = None if literal else options.get(token)
        if option is None and not literal and token[:2] == "--":
            if token == "--":
                literal = True
                continue
            name, eq, value = token.partition("=")
            found = ([name] if name in options
                     else [flag for flag in options if flag.startswith(name)])
            if len(found) > 1:
                raise _Stop(ns, f"ambiguous option: {token} could "
                                f"match {', '.join(found)}")
            if not found:
                extras.append(token)
                continue
            option, value = options[found[0]], (value if eq else None)
        if option is None:
            if positional is None or positional[0] in ns:
                extras.append(token)
                continue
            option, value = positional, token
        dest, name, convert, choices = option
        if dest == "help" or dest == "json":  # the flags take no value
            if value is not None:
                raise _Stop(ns, f"argument {name}: ignored explicit "
                                f"argument {value!r}")
            if dest == "help":
                raise _Stop(ns, None)
            ns["json"] = True
            continue
        if value is None:
            value = next(tokens, None)
            if value is None or value[:2] == "--" or value == "-h":
                raise _Stop(ns, f"argument {name}: expected one argument")
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                raise _Stop(ns, f"argument {name}: invalid {convert.__name__} "
                                f"value: {value!r}") from None
        if choices is not None and value not in choices:
            raise _Stop(ns, f"argument {name}: invalid choice: {value!r} "
                            f"(choose from {', '.join(map(repr, choices))})")
        ns[dest] = value
        if dest == "command":
            defaults, options, arguments, positional = _GRAMMAR[value]
            ns.update(defaults)
    missing = [name for dest, name, _, _ in arguments if dest not in ns]
    if missing:
        raise _Stop(ns, "the following arguments are required: "
                        + ", ".join(missing))
    if extras:
        raise _Stop(ns, "unrecognized arguments: " + " ".join(extras))
    return ns


def _help(command, error=None) -> str:
    """The text ``--help`` prints for a command (None: the top level),
    or, for a usage error, its usage line and the error."""
    if command is None:
        usage, about = "[-h] [--json] COMMAND ...", _DESCRIPTION
        title, rows = "commands", [(name, help_) for name, (help_, _)
                                   in _COMMANDS.items()]
    else:
        about, arguments = _COMMANDS[command]
        usage, title = f"{command} [-h] [--json]", "arguments"
        rows = [("--json", "structured JSON output")]
        for flag, keywords in arguments:
            shown = keywords.get("metavar", flag[2:].upper())
            if flag.startswith("--"):
                shown = f"{flag} {shown}"
            choices = keywords.get("choices")
            rows.append((shown, f"one of {', '.join(choices)}" if choices
                         else keywords.get("help", "")))
            optional = flag.startswith("--") and not keywords.get("required")
            usage += f" [{shown}]" if optional else f" {shown}"
    if error is not None:
        return (f"usage: biquat {usage}\n"
                f"biquat{' ' + command if command else ''}: error: {error}")
    width = max(len(left) for left, _ in rows)
    return f"usage: biquat {usage}\n\n{about}\n\n{title}:" + "".join(
        [f"\n  {left:<{width}}  {text}".rstrip() for left, text in rows])


def main(argv=None) -> int:
    try:
        if sys.stdout is None:  # fd 1 was closed: print would drop the output
            raise ValueError("standard output is closed")
        try:
            ns = _read_argv(sys.argv[1:] if argv is None else argv)
        except _Stop as stop:
            so_far, error = stop.args
            print(_help(so_far.get("command"), error),
                  file=sys.stdout if error is None else sys.stderr)
            code = 0 if error is None else 1
        else:
            code = globals()["_cmd_" + ns["command"].replace("-", "_")](
                SimpleNamespace(**ns))
        sys.stdout.flush()  # a pipe's held output fails here, not at exit
        return code
    except ParseError as e:
        print(f"biquat: parse error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"biquat: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"biquat: {e}", file=sys.stderr)
        try:  # what stdout holds would fail the final flush again
            sys.stdout.flush()
        except OSError:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
