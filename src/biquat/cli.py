"""Command-line interface: the ``biquat`` entry point.

The grammar is written once, in ``_COMMANDS``.  ``_read_argv`` reads a
well-formed argv from that table without loading argparse: leading
``--json`` flags, a command name, exact option names each followed by a
plain value, at most one positional, and ``--json`` anywhere after the
command.  It declines anything else (help, abbreviations, the ``=`` and
``--`` forms, unknown tokens, usage errors) and ``main`` hands that argv
to the argparse parser ``build_parser`` makes from the same table, so
every help text, usage message and exit code is argparse's own.
``biquat --help`` lists the commands from the same table, after
``_DESCRIPTION``, which holds only what the table cannot say: the
literal syntax, stdin and the exit codes.  Each command's usage is
under ``biquat CMD --help``.

Text crosses the boundary at C speed.  ``parse_biquat`` splits the
comma form once and matches each piece against the one literal pattern,
``_RE_COMPLEX``; only refused text is scanned again, by ``_refusal``, to
name the piece at fault.  Every ``--json`` report with an indent is
written by ``_json_text``, which gives ``json.dumps(obj, indent=2)``
byte for byte without the pure-Python encoder ``json`` falls back to
whenever an indent is set.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace

from .biquaternion import BiQuat, from_quat, is_real, json_form, real_part
from .entanglement import (RestrictionError, StateAmp, Variant,
                           _concurrence, _sandwich, check_restrictions,
                           concurrence, embed_state, entangle)
from .quaternion import DEFAULT_TOL, Quat, _new, polar
from .rotations import (complex_rotation, conjugate_rotation, lorentz_map,
                        rotate_biquat, rotate_onesided)

__all__ = ["ParseError", "parse_biquat", "parse_quat", "format_biquat",
           "format_complex", "build_parser", "main"]

_DESCRIPTION = """Command-line interface.

A biquaternion is written as four comma-separated complex literals
("0.5+0.5i, -0.5i, 0, 1"), or as a JSON object {"re": [...], "im":
[...]}; a quaternion is the same with real entries.  `-` makes
``concurrence`` read its argument from stdin.  ``--json`` switches any
command to structured output.

Exit codes: 0 success, 1 parse or usage error, 2 restriction rejection,
3 verification failure.
"""


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
# never inside a number.  Groups: the sign and the digits of the first
# number, the sign and the digits of the imaginary part of a+bi, and the
# "i" of bi.  Each gap is bound to the token after it, so refused text
# costs linear time.
_RE_COMPLEX = re.compile(
    rf"\s*(?:([+-]){_GAP})?({_UNSIGNED})"
    rf"(?:{_GAP}(?:([+-]){_GAP}({_UNSIGNED}){_GAP}i|(i)))?\s*\Z")


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name}")


# What json.loads(text, parse_constant=_reject_constant) builds on every
# call, built once.  (json.loads also refuses a leading BOM, but such
# text never reaches the JSON form: it does not start with "{".)
_JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _parse_json_biquat(text: str) -> BiQuat:
    try:
        obj = _JSON_DECODER.decode(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ParseError('JSON form needs exactly the keys "re" and "im"')
    re_, im = obj["re"], obj["im"]
    if (not isinstance(re_, list) or not isinstance(im, list)
            or len(re_) != 4 or len(im) != 4):
        raise ParseError('"re" and "im" must be arrays of 4 numbers')
    # Only JSON numbers: type() leaves out bool, a subclass of int.
    if not {*map(type, re_), *map(type, im)} <= {int, float}:
        raise ParseError('"re" and "im" entries must be numbers')
    try:
        q = _new(BiQuat, map(complex, map(float, re_), map(float, im)))
    except OverflowError:
        raise ParseError("non-finite number") from None
    if not all(map(cmath.isfinite, q)):
        raise ParseError("non-finite number")
    return q


def parse_biquat(text: str) -> BiQuat:
    """Parse the comma-separated or JSON form of a biquaternion.
    Whitespace may stand around a literal and between its sign, number
    and ``i``, never inside a number."""
    if text.lstrip().startswith("{"):
        return _parse_json_biquat(text)
    pieces = text.split(",")
    if len(pieces) != 4:
        raise ParseError(f"expected 4 components, found {len(pieces)}")
    parts = []
    for m in map(_RE_COMPLEX.match, pieces):
        if m is None:
            break
        sign, digits, imag_sign, imag_digits, unit = m.groups()
        x = -float(digits) if sign == "-" else float(digits)
        if imag_digits is not None:
            parts.append(complex(x, -float(imag_digits) if imag_sign == "-"
                                 else float(imag_digits)))
        else:
            parts.append(complex(0.0, x) if unit else complex(x, 0.0))
    else:
        if all(map(cmath.isfinite, parts)):  # 1e999 overflows to inf
            return _new(BiQuat, parts)
    raise _refusal(pieces, parts)


def _refusal(pieces: list, values: list) -> ParseError:
    """The ParseError of the first refused piece, left to right.
    ``values`` holds the values of the pieces before the first one
    ``_RE_COMPLEX`` refused; the position is the piece's first non-blank
    character."""
    start = 0
    for k, seg in enumerate(pieces):
        position = start + len(seg) - len(seg.lstrip())
        start += len(seg) + 1
        if k < len(values):
            if cmath.isfinite(values[k]):
                continue
            return ParseError("non-finite number", position)
        stripped = seg.strip()
        token = stripped.replace(" ", "").replace("\t", "")
        if _RE_COMPLEX.match(token):
            # Only spaces and tabs stand between the piece and a literal,
            # at places where they would split a number: "1 2", "1e 3".
            return ParseError(f"whitespace inside a number in {stripped!r}",
                              position)
        return ParseError(f"malformed complex literal {token!r}", position)


def parse_quat(text: str) -> Quat:
    """Parse a real quaternion (a biquaternion with no imaginary parts)."""
    return _require_real(parse_biquat(text),
                         "expected a real quaternion, found imaginary parts")


def _require_real(q: BiQuat, message: str) -> Quat:
    if not is_real(q, 0.0):
        raise ParseError(message)
    return real_part(q)


def _fmt_float(x: float) -> str:
    # repr round-trips exactly; _json_num's rule drops an integral ".0".
    return repr(_json_num(x))


def _json_num(x: float):
    # The one integral-number rule of both styles: an integral float below
    # 1e16 is written as an int, a zero of either sign as 0.
    return int(x) if x.is_integer() and abs(x) < 1e16 else x


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
    """Render a biquaternion; the plain style parses back bit-exactly.
    ValueError for a non-finite part, which no style could parse back."""
    for k, c in enumerate(q, 1):
        if not cmath.isfinite(c):
            raise ValueError(f"non-finite part c{k} = {complex(c)}")
    if style == "plain":
        return ", ".join([_literal(complex(c)) for c in q])
    if style == "json":
        return json.dumps({key: [_json_num(x) for x in xs]
                           for key, xs in json_form(q).items()})
    if style == "unicode":
        units = ("", "î", "ĵ", "k̂")
        parts = []
        for c, u in zip(q, units):
            lit = _literal(complex(c))
            parts.append(f"({lit}){u}" if u else lit)
        return " + ".join(parts)
    raise ValueError(f"unknown style: {style!r}")


def _json_float(x: float) -> str:
    # json's float rule: NaN and the infinities by name, else repr.
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    # json's dict-key rule: a str as it is, a float, bool, None or int
    # by its JSON text; TypeError for anything else.
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte: the same isinstance
    order (str, None, True, False, int, float, list or tuple, dict), ASCII
    escapes by ``encode_basestring_ascii``, keys in the dict's order, and
    TypeError for a value or key json cannot encode.  Circular references
    are not looked for."""
    out = []
    emit = out.append

    def value(o, indent):
        # indent is a newline and two spaces per enclosing container.
        if isinstance(o, str):
            emit(_encode_str(o))
        elif o is None:
            emit("null")
        elif o is True:
            emit("true")
        elif o is False:
            emit("false")
        elif isinstance(o, int):
            emit(int.__repr__(o))
        elif isinstance(o, float):
            emit(_json_float(o))
        elif isinstance(o, (list, tuple)):
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
        elif isinstance(o, dict):
            if not o:
                emit("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for key, item in o.items():
                emit(sep)
                emit(_encode_str(_json_key(key)))
                emit(": ")
                value(item, inner)
                sep = "," + inner
            emit(indent + "}")
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} "
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
    text = sys.stdin.readline() if ns.state == "-" else ns.state
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
        print(format_biquat(result))
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
    import csv

    n = ns.grid
    if n < 1:
        raise ParseError("--grid must be at least 1")
    half_pi = math.pi / 2.0
    mix = [half_pi * k / (n - 1) for k in range(n)] if n > 1 else [half_pi / 2]
    phase = [2.0 * math.pi * k / n for k in range(n)]
    # Rotors and states are unit by construction: rows run unchecked kernels.
    rotors = [(Quat(ai, 0.0, aj, 0.0), repr(ai), repr(aj))
              for ai, aj in ((math.cos(t), math.sin(t)) for t in mix)]

    rows = len(mix) * len(phase) ** 2 * len(rotors)
    maximal = 0

    def sweep_rows():
        nonlocal maximal
        for tq in mix:
            ma, mb = math.cos(tq), math.sin(tq)
            betas = [mb * complex(math.cos(pb), math.sin(pb)) for pb in phase]
            beta_texts = [format_complex(beta) for beta in betas]
            for pa in phase:
                alpha = ma * complex(math.cos(pa), math.sin(pa))
                alpha_text = format_complex(alpha)
                for beta, beta_text in zip(betas, beta_texts):
                    qv = embed_state(StateAmp(alpha, beta, Variant.V12))
                    for p, ai_text, aj_text in rotors:
                        c = _concurrence(_sandwich(p, qv))
                        is_max = c >= 1.0 - DEFAULT_TOL
                        maximal += is_max
                        yield (alpha_text, beta_text, ai_text, aj_text,
                               repr(c), 1 if is_max else 0)

    out = sys.stdout if ns.out == "-" else open(ns.out, "w", newline="")
    try:
        w = csv.writer(out)
        w.writerow(["alpha", "beta", "a_i", "a_j", "concurrence", "maximal"])
        w.writerows(sweep_rows())  # streamed: no N^4 list in memory
    finally:
        if out is not sys.stdout:
            out.close()
    if ns.json:
        print(json.dumps({"rows": rows, "maximal_rows": maximal,
                          "out": ns.out}))
    elif ns.out != "-":
        print(f"wrote {rows} rows ({maximal} maximal) to {ns.out}")
    return 0


# The command grammar, the one source of build_parser and _read_argv:
# name -> (help, arguments), each argument a name and the keywords
# add_argument takes.  A name without the "--" prefix is the positional.
# Every command also takes --json, and its handler is _handler_name(name).
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
        ("--map", {"required": True, "choices": ("left", "right", "conj",
                                                 "psi", "lorentz", "mu")}),
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


def _handler_name(command: str) -> str:
    return "_cmd_" + command.replace("-", "_")


def build_parser():
    """A fresh ``argparse.ArgumentParser`` for the grammar in
    ``_COMMANDS``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # Usage problems are exit code 1 here, not argparse's default 2.
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    top = _Parser(prog="biquat", description=_DESCRIPTION,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--json", action="store_true", default=False,
                     help="structured JSON output")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        # The flag works in both positions; SUPPRESS keeps a subcommand
        # occurrence from clobbering one given before the command name.
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return top


def _reader_grammar():
    """name -> (the namespace entries every argv of the command gets,
    option -> (dest, type, choices), required dests, positional dest)."""
    grammar = {}
    for name, (_, arguments) in _COMMANDS.items():
        fixed = {"command": name}
        options, required, positional = {}, [], None
        for flag, keywords in arguments:
            if flag.startswith("--"):
                dest = flag[2:]
                options[flag] = (dest, keywords.get("type"),
                                 keywords.get("choices"))
                if keywords.get("required"):
                    required.append(dest)
                else:
                    fixed[dest] = keywords.get("default")
            else:
                positional = flag
                required.append(flag)
        grammar[name] = (fixed, options, tuple(required), positional)
    return grammar


_GRAMMAR = _reader_grammar()


def _read_argv(argv):
    """``vars(build_parser().parse_args(argv))`` for an argv in the exact
    grammar, read without argparse; None for any other argv."""
    n = len(argv)
    i = 0
    while i < n and argv[i] == "--json":
        i += 1
    if i == n or argv[i] not in _GRAMMAR:
        return None
    fixed, options, required, positional = _GRAMMAR[argv[i]]
    ns = dict(fixed, json=i > 0)
    i += 1
    while i < n:
        token = argv[i]
        i += 1
        if token == "--json":
            ns["json"] = True
            continue
        option = options.get(token)
        if option is not None:
            if i == n:
                return None
            dest, convert, choices = option
            token = argv[i]
            i += 1
        elif positional is None or positional in ns:
            return None
        else:
            dest, convert, choices = positional, None, None
        # argparse (3.10-3.13) reads a token starting with "-" as a value
        # only when it is "-" alone or holds a space, and it reads "-h..."
        # as -h with an attached argument; "--" and "=" forms are left to
        # it as well.
        if (token[:1] == "-" and token != "-"
                and (token[1] in "-h" or " " not in token or "=" in token)):
            return None
        if convert is not None:
            try:
                token = convert(token)
            except ValueError:
                return None
        if choices is not None and token not in choices:
            return None
        ns[dest] = token
    for dest in required:
        if dest not in ns:
            return None
    return ns


# The parser main() reuses for the life of the process, built the first
# time _read_argv declines an argv.  parse_args leaves a parser
# unchanged, so sharing it cannot be seen.  main looks the handler up
# by command name on every call, so a later rebinding of a handler in
# this module is still called.
_parser = None


def main(argv=None) -> int:
    global _parser
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _read_argv(argv)
    if ns is not None:
        args = SimpleNamespace(**ns)
    else:
        if _parser is None:
            _parser = build_parser()
        try:
            args = _parser.parse_args(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
    try:
        return globals()[_handler_name(args.command)](args)
    except ParseError as e:
        print(f"biquat: parse error: {e}", file=sys.stderr)
        return 1
    except RestrictionError as e:
        print(f"biquat: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"biquat: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"biquat: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
