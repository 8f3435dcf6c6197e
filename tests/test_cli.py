"""CLI grammar, formatting, subcommands, and the exit-code contract.

Output is captured with redirect_stdout/redirect_stderr rather than
capsys so the tests behave the same under pytest's -s mode.
"""

import cmath
import csv
import enum
import functools
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquat import cli
from biquat.biquaternion import BiQuat, from_quat, json_form, real_part
from biquat.cli import (ParseError, format_biquat, format_complex, main,
                        parse_biquat, parse_quat)
from biquat.entanglement import entangle
from biquat.quaternion import DEFAULT_TOL, Quat
from biquat.rotations import complex_rotation, lorentz_map, rotate_onesided

INV_SQRT2 = math.sqrt(0.5)
_S = repr(INV_SQRT2)


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# --- parsing -----------------------------------------------------------

def test_parse_plain_forms():
    assert parse_biquat("1,0,0,0") == BiQuat(1, 0, 0, 0)
    assert parse_biquat("0.5+0.5i, -0.5i, 0, 1") == BiQuat(
        0.5 + 0.5j, -0.5j, 0, 1)
    assert parse_biquat(" 1 , 2 , 3 , 4 ") == BiQuat(1, 2, 3, 4)
    assert parse_biquat("1e-3i,0,0,-2.5E+1") == BiQuat(1e-3j, 0, 0, -25)
    assert parse_biquat("-1-2i,0,0,0") == BiQuat(-1 - 2j, 0, 0, 0)


def test_parse_json_form():
    q = parse_biquat('{"re": [1, 0, 0, 0.5], "im": [0, -0.5, 0, 0]}')
    assert q == BiQuat(1, -0.5j, 0, 0.5)


def test_parse_arity_error():
    with pytest.raises(ParseError, match="expected 4 components, found 3"):
        parse_biquat("1,2,3")
    with pytest.raises(ParseError, match="found 5"):
        parse_biquat("1,2,3,4,5")


def test_parse_bad_literal_reports_position():
    with pytest.raises(ParseError, match=r"position 3") as err:
        parse_biquat("1, 2x, 3, 4")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_biquat("1, i, 0, 0")  # bare i needs a coefficient
    with pytest.raises(ParseError):
        parse_biquat("1+2j, 0, 0, 0")
    # The first piece at fault, left to right, is named, whichever way
    # it fails.
    for text, message, position in [
            ("1e999, 2x, 0, 0", "non-finite number", 0),
            ("2x, 1e999, 0, 0", "malformed complex literal '2x'", 0),
            ("0, - 1e999 i, 0, 0", "non-finite number", 3)]:
        with pytest.raises(ParseError) as err:
            parse_biquat(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


# The three-pattern grammar cli._RE_COMPLEX replaces, kept as the reference.
_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REF_FORMS = (rf"({_NUM})", rf"({_NUM})i", rf"({_NUM})([+-]{_UNSIGNED})i")
_REF_REAL, _REF_IMAG, _REF_BOTH = (re.compile(rf"{form}\Z")
                                   for form in _REF_FORMS)


def _reference_literal(token):
    """(re, im) text of a literal by the three patterns, or None."""
    if m := _REF_REAL.match(token):
        return m.group(1), "0.0"
    if m := _REF_IMAG.match(token):
        return "0.0", m.group(1)
    if m := _REF_BOTH.match(token):
        return m.group(1), m.group(2)
    return None


# Literals without whitespace; test_parse_places_whitespace_by_the_gap_rule
# puts blanks around and inside them.
_literal_tokens = st.one_of(
    st.from_regex("|".join(f"(?:{form})" for form in _REF_FORMS),
                  fullmatch=True),
    st.text(alphabet="0123456789.eE+-ij", max_size=16),
)


@given(_literal_tokens)
def test_complex_literal_grammar_equals_the_three_pattern_union(token):
    want = _reference_literal(token)
    assert (cli._RE_COMPLEX.match(token) is None) == (want is None)
    try:
        got = parse_biquat("0,0,0," + token)[3]
    except ParseError as e:
        got = (str(e), e.position)
    if want is None:
        assert got == (f"malformed complex literal {token!r} "
                       f"(at position 6)", 6)
        return
    z = complex(float(want[0]), float(want[1]))
    if cmath.isfinite(z):
        assert repr(got) == repr(z)
    else:
        assert got == ("non-finite number (at position 6)", 6)


# A run of _UNSIGNED's \d: the ASCII digits and, since \d and float()
# take every Unicode decimal digit, a few others (Arabic-Indic,
# Devanagari, Bengali, fullwidth and mathematical bold).
_DIGIT_RUN = st.text("0123456789\u0660\u0669\u0967\u09e7\uff10\uff19"
                     "\U0001d7ce\U0001d7d7", min_size=1, max_size=10)


def _unsigned_text(digit_run, exponent_run):
    """Every shape _UNSIGNED matches: digits, digits., digits.digits and
    .digits, each with or without an exponent [eE][+-]?digits."""
    return st.builds(
        str.__add__,
        st.one_of(digit_run, digit_run.map("{}.".format),
                  st.builds("{}.{}".format, digit_run, digit_run),
                  digit_run.map(".{}".format)),
        st.one_of(st.just(""),
                  st.builds("{}{}{}".format, st.sampled_from("eE"),
                            st.sampled_from(("", "+", "-")), exponent_run)))


_UNSIGNED_TEXT = _unsigned_text(_DIGIT_RUN, _DIGIT_RUN)


@st.composite
def _blanked_piece(draw):
    """(text, value, split, lead): one literal of the form a, bi or a+bi,
    with whitespace before and after it and blanks at its gaps.  ``split``
    is True when a blank was put inside a number, ``lead`` is the length
    of the whitespace before the literal."""
    def number():
        text = draw(_UNSIGNED_TEXT)
        assert re.fullmatch(_UNSIGNED, text), text
        return text

    sign = draw(st.sampled_from(("", "+", "-")))
    first = number()
    tokens = [sign, first] if sign else [first]
    x = float(sign + first)
    form = draw(st.sampled_from(("a", "bi", "a+bi")))
    if form == "a":
        value = complex(x, 0.0)
    elif form == "bi":
        tokens.append("i")
        value = complex(0.0, x)
    else:
        imag_sign, imag = draw(st.sampled_from("+-")), number()
        tokens += [imag_sign, imag, "i"]
        value = complex(x, float(imag_sign + imag))
    split = False
    long_numbers = [k for k, t in enumerate(tokens) if len(t) > 1]
    if long_numbers and draw(st.booleans()):
        k = draw(st.sampled_from(long_numbers))
        cut = draw(st.integers(1, len(tokens[k]) - 1))
        blank = draw(st.sampled_from((" ", "\t", " \t ")))
        tokens[k] = tokens[k][:cut] + blank + tokens[k][cut:]
        split = True
    gap = st.text(" \t", max_size=2)
    lead = draw(st.text(" \t\n\x0b\u3000", max_size=2))
    text = lead + tokens[0]
    for t in tokens[1:]:
        text += draw(gap) + t
    text += draw(st.text(" \t\n\u3000", max_size=2))
    return text, value, split, len(lead)


@settings(max_examples=300)
@given(st.lists(_blanked_piece(), min_size=4, max_size=4))
def test_parse_places_whitespace_by_the_gap_rule(pieces):
    # Blanks may stand around a literal and between a sign, a number and
    # the i; a blank inside a number (digits, point or exponent) refuses
    # the text at that piece's first non-blank character.
    text = ",".join(t for t, _, _, _ in pieces)
    want = None
    start = 0
    for t, value, split, lead in pieces:
        if split:
            want = (f"whitespace inside a number in {t.strip()!r}",
                    start + lead)
            break
        if not cmath.isfinite(value):  # a long exponent overflows
            want = ("non-finite number", start + lead)
            break
        start += len(t) + 1
    try:
        got = parse_biquat(text)
    except ParseError as e:
        assert want is not None, text
        assert (str(e), e.position) == (
            f"{want[0]} (at position {want[1]})", want[1]), text
        return
    assert want is None, text
    assert repr(got) == repr(BiQuat(*(v for _, v, _, _ in pieces)))


# An independent per-piece reader, kept as the reference: a pattern whose
# five groups give the signs and digits that float() reads, then a second
# scan that names the fault.
_GAP = r"[ \t]*"
_REF_COMPLEX = re.compile(
    rf"\s*(?:([+-]){_GAP})?({_UNSIGNED})"
    rf"(?:{_GAP}(?:([+-]){_GAP}({_UNSIGNED}){_GAP}i|(i)))?\s*\Z")


def _ref_refusal(pieces, values):
    """The ParseError of the first refused piece, left to right.
    ``values`` holds the values of the pieces before the first one
    ``_REF_COMPLEX`` refused; the position is the piece's first non-blank
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
        if _REF_COMPLEX.match(token):
            # Only spaces and tabs stand between the piece and a literal,
            # at places where they would split a number: "1 2", "1e 3".
            return ParseError(f"whitespace inside a number in {stripped!r}",
                              position)
        return ParseError(f"malformed complex literal {token!r}", position)


def _per_piece_reader(text):
    """The comma-form reader without the complex() pass, kept as the
    reference: every piece through _REF_COMPLEX and float(), then
    _ref_refusal."""
    pieces = text.split(",")
    if len(pieces) != 4:
        raise ParseError(f"expected 4 components, found {len(pieces)}")
    parts = []
    for m in map(_REF_COMPLEX.match, pieces):
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
        if all(map(cmath.isfinite, parts)):
            return BiQuat(*parts)
    raise _ref_refusal(pieces, parts)


def _read_outcome(read, text):
    """Every part's bits, or the ParseError's (message, position)."""
    try:
        q = read(text)
    except ParseError as e:
        return str(e), e.position
    assert type(q) is BiQuat
    return [(c.real.hex(), c.imag.hex()) for c in q]


# Exponents of up to three digits, so that most literals are finite.
_ASCII_UNSIGNED = _unsigned_text(
    st.text("0123456789", min_size=1, max_size=20),
    st.text("0123456789", min_size=1, max_size=3))
# A gap-free literal in ASCII: a, bi or a+bi, a signed or not.
_ASCII_LITERAL = st.builds(
    "{}{}{}".format, st.sampled_from(("", "+", "-")), _ASCII_UNSIGNED,
    st.one_of(st.just(""), st.just("i"),
              st.builds("{}{}i".format, st.sampled_from("+-"),
                        _ASCII_UNSIGNED)))
# What complex() would read, or nearly read, where _RE_COMPLEX does not,
# or the reverse: j and J, the underscore, the names of the non-finite
# numbers and their letters, a parenthesis, an "i" with no coefficient or
# after an exponent letter, an Arabic-Indic digit, an ideographic space
# and a vertical tab (both whitespace to complex() and str.strip()), an
# overflowing exponent, a negative zero, and the gate's own characters,
# which put blanks or line ends inside a literal or cut it in two.
_NEAR_MISSES = ("j", "J", "_", "n", "inf", "nan", "(", ")", "i", "+i", "1+i",
                "ei", "\u0663", "\u3000", "\x0b", "1e999", "-0i", " ", "\t",
                "\n", "\r", "+", "-", ".", "e", ",")


@st.composite
def _plain_text(draw):
    """3 to 5 comma-separated pieces: mostly gap-free ASCII literals with
    blanks and line ends around them, some made of near misses and
    digits alone."""
    pieces = []
    for _ in range(draw(st.sampled_from((3, 4, 4, 4, 4, 4, 4, 5)))):
        if draw(st.integers(0, 9)) == 0:
            pieces.append("".join(draw(st.lists(
                st.sampled_from(_NEAR_MISSES + tuple("0123456789")),
                max_size=6))))
        else:
            blank = st.text(" \t\n\r", max_size=2)
            pieces.append(draw(blank) + draw(_ASCII_LITERAL) + draw(blank))
    return ",".join(pieces)


@settings(max_examples=300)
@given(_plain_text(), st.integers(0, 10**6))
def test_parse_equals_the_per_piece_reader(text, at):
    # The complex() pass is only a faster way to the same result: the
    # same bits of every part, or the same message and position, for the
    # drawn text and for it with each near miss put in at one place.
    at %= len(text) + 1
    for t in (text, *[text[:at] + miss + text[at:] for miss in _NEAR_MISSES]):
        assert _read_outcome(parse_biquat, t) == _read_outcome(
            _per_piece_reader, t), t


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", " \n\t"])
def test_a_comma_text_with_its_line_end_takes_the_complex_pass(
        monkeypatch, end):
    # What sys.stdin.read() gives for "concurrence -": the newline is in
    # the gate's class, so the per-piece reader is never reached.
    monkeypatch.setattr(cli, "_RE_COMPLEX", None)
    assert parse_biquat("0.6, 0, 0, 0.8" + end) == BiQuat(0.6, 0, 0, 0.8)
    assert parse_biquat("0.6+0.8i, 0,\n0, 0" + end) == BiQuat(0.6 + 0.8j,
                                                              0, 0, 0)


@pytest.mark.parametrize("text,value", [
    (" 1 , 2 , 3 , 4 ", BiQuat(1, 2, 3, 4)),
    ("0.5 + 0.5 i, 0, 0, 0", BiQuat(0.5 + 0.5j, 0, 0, 0)),
    ("- 1, 0, 0, 0", BiQuat(-1, 0, 0, 0)),
    ("1 -2i, 0, 0, 0", BiQuat(1 - 2j, 0, 0, 0)),
    ("\t-\t2 \t i, + 3, 0 - .5 i, 4e1 +1E-1i",
     BiQuat(-2j, 3, -0.5j, 40 + 0.1j)),
])
def test_parse_takes_blanks_between_sign_number_and_i(text, value):
    assert parse_biquat(text) == value


@pytest.mark.parametrize("text,piece,position", [
    ("1 2, 0, 0, 0", "1 2", 0),
    ("1\t5, 0, 0, 0", "1\t5", 0),
    ("1e 3, 0, 0, 0", "1e 3", 0),
    ("0, 0.5+0. 5i, 0, 0", "0.5+0. 5i", 3),
    ("0, 0, 0,  1 .5i", "1 .5i", 10),
])
def test_whitespace_inside_a_number_is_a_parse_error(text, piece, position):
    # Whitespace never glues digits together: "1 2" is not 12.
    with pytest.raises(ParseError) as err:
        parse_biquat(text)
    assert str(err.value) == (f"whitespace inside a number in {piece!r} "
                              f"(at position {position})")
    assert err.value.position == position
    code, out, err_text = run_cli(["concurrence", text])
    assert (code, out) == (1, "")
    assert err_text == f"biquat: parse error: {err.value}\n"


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_biquat("{bad")
    with pytest.raises(ParseError, match='keys "re" and "im"'):
        parse_biquat('{"re": [1,0,0,0]}')
    with pytest.raises(ParseError, match="arrays of 4"):
        parse_biquat('{"re": [1,0,0], "im": [0,0,0]}')
    with pytest.raises(ParseError, match="must be numbers"):
        parse_biquat('{"re": [1,0,0,"x"], "im": [0,0,0,0]}')


@pytest.mark.parametrize("text, key", [
    ('{"re": [1, 0, 0, 0], "im": [0, 0, 0, 0], "re": [0.6, 0, 0, 0.8]}',
     '"re"'),
    # A repeat inside a nested object, and inside an object in an array,
    # is refused before the top-level keys are looked at.
    ('{"re": [0.6, 0, 0, 0.8], "im": [0, 0, 0, 0], "x": {"a": 1, "a": 2}}',
     '"a"'),
    ('{"re": [{"b": [{"c": 0, "c": 0}]}, 0, 0, 0], "im": [0, 0, 0, 0]}',
     '"c"'),
    # The key is written as a JSON string, so the error stays one line.
    ('{"re": [1, 0, 0, 0], "im": [0, 0, 0, 0], "\\n\u00e9": 0, '
     '"\\n\u00e9": 1}', '"\\n\\u00e9"'),
])
def test_json_form_refuses_a_repeated_key(text, key):
    with pytest.raises(ParseError) as err:
        parse_biquat(text)
    assert str(err.value) == f"repeated JSON key {key}"
    assert run_cli(["concurrence", text]) == (
        1, "", f"biquat: parse error: repeated JSON key {key}\n")


@pytest.mark.parametrize("entry", ["true", "false", "null", '"0.6"',
                                   '" 1 "', '"1"', "[1]", '{"a": 1}'])
def test_json_entries_must_be_json_numbers(entry):
    text = '{"re": [%s, 0, 0, 0], "im": [0, 0, 0, 0]}' % entry
    with pytest.raises(ParseError, match="must be numbers"):
        parse_biquat(text)
    code, out, err = run_cli(["--json", "concurrence", text])
    assert (code, out) == (1, "")
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["concurrence", '{"re":[NaN,0,0,0],"im":[0,0,0,0]}'],
    ["polar", "1e999, 0, 0, 0"],
    ["--json", "rotate", "--map", "mu", "--q", "1,0,0,0",
     "--x", '{"re":[NaN,0,0,0],"im":[0,0,0,0]}'],
    ["concurrence", '{"re":[1e999,0,0,0],"im":[0,0,0,0]}'],
    ["concurrence", '{"re":[1' + "0" * 400 + ',0,0,0],"im":[0,0,0,0]}'],
])
def test_non_finite_input_is_a_parse_error(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert "parse error: non-finite number" in err


# An integer past int()'s digit limit (4300 by default) is refused as
# the same digits are in the comma form: both are past the float range.
_LONG_INT = "1" * 5000


def test_a_json_integer_reads_as_the_comma_form_reads_it():
    for digits in ("-0", "0", "7", "-12", "9007199254740993", "1" * 300):
        json_form = parse_biquat(
            '{"re": [%s, 1, 0, 0], "im": [0, 0, 0, %s]}' % (digits, digits))
        comma = parse_biquat(f"{digits}, 1, 0, {digits}i")
        assert [(c.real.hex(), c.imag.hex()) for c in json_form] == [
            (c.real.hex(), c.imag.hex()) for c in comma]


@pytest.mark.parametrize("text", [
    '{"re": [%s, 0, 0, 0], "im": [0, 0, 0, 0]}' % _LONG_INT,
    '{"re": [0, 0, 0, 0], "im": [0, 0, 0, -%s]}' % _LONG_INT,
    "%s, 0, 0, 0" % _LONG_INT,
], ids=["json-re", "json-im", "comma"])
def test_an_integer_past_the_digit_limit_is_non_finite(text):
    with pytest.raises(ParseError, match="^non-finite number"):
        parse_biquat(text)
    code, out, err = run_cli(["concurrence", text])
    assert (code, out) == (1, "")
    assert err.startswith("biquat: parse error: non-finite number")


_DEEP = '{"re": ' + "[" * 50000 + "]" * 50000 + ', "im": [0, 0, 0, 0]}'
_DEEP_ERROR = "biquat: parse error: invalid JSON: nested too deeply\n"


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(ParseError, match="^invalid JSON: nested too deeply$"):
        parse_biquat(_DEEP)
    assert run_cli(["concurrence", "-"], stdin_text=_DEEP) == (
        1, "", _DEEP_ERROR)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "biquat", "concurrence", "-"], input=_DEEP,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", _DEEP_ERROR)


def test_parse_quat_rejects_imaginary():
    assert parse_quat("1,0,-2,0") == Quat(1, 0, -2, 0)
    with pytest.raises(ParseError, match="expected a real quaternion"):
        parse_quat("1i,0,0,0")


# --- formatting ----------------------------------------------------------

def test_format_complex_rules():
    assert format_complex(0) == "0"
    assert format_complex(1) == "1"
    assert format_complex(-0.5j) == "-0.5i"
    assert format_complex(1 + 2j) == "1+2i"
    assert format_complex(1 - 2j) == "1-2i"
    assert format_complex(0.5) == "0.5"


@pytest.mark.parametrize("c", [
    complex(math.inf, 1), complex(1, math.inf), complex(0, -math.inf),
    complex(math.nan, 0), complex(0, math.nan), complex(math.nan, math.nan),
    math.inf, -math.inf, math.nan,
])
def test_format_complex_refuses_a_non_finite_part(c):
    # "inf+1i" or "nani" would not parse back.
    with pytest.raises(ValueError, match="non-finite"):
        format_complex(c)


def test_format_complex_keeps_finite_extremes():
    for c in (complex(1.7976931348623157e308, -5e-324), complex(0, 5e-324)):
        assert parse_biquat(f"{format_complex(c)}, 0, 0, 0").c1 == c


def test_format_biquat_styles():
    q = BiQuat(1, -0.5j, 0, 0.25 + 0.25j)
    assert format_biquat(q) == "1, -0.5i, 0, 0.25+0.25i"
    assert json.loads(format_biquat(q, "json")) == {
        "re": [1, 0, 0, 0.25], "im": [0, -0.5, 0, 0.25]}
    assert format_biquat(q, "json") == json.dumps(json_form(q))
    uni = format_biquat(q, "unicode")
    assert "î" in uni and "ĵ" in uni
    with pytest.raises(ValueError, match="unknown style"):
        format_biquat(q, "latex")


def test_format_identity_json_example():
    assert format_biquat(BiQuat(1, 0, 0, 0), "json") == (
        '{"re": [1.0, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}')


@pytest.mark.parametrize("style", ["plain", "json", "unicode"])
@pytest.mark.parametrize("q,part", [
    (BiQuat(math.inf, 0, 0, 0), "c1"),
    (BiQuat(0, complex(0, -math.inf), 0, 0), "c2"),
    (BiQuat(0, 0, math.nan, 0), "c3"),
    (BiQuat(1, 0, 0, complex(1, math.nan)), "c4"),
])
def test_format_biquat_refuses_a_non_finite_part(q, part, style):
    # No style could parse such a part back.
    with pytest.raises(ValueError, match=f"non-finite part {part} = "):
        format_biquat(q, style)


def test_only_the_plain_style_writes_integral_floats_as_ints():
    # An integral float below 1e16, a zero of either sign included, is an
    # int in the plain style; the JSON style is json_form's floats.
    for q in (BiQuat(0.0, -0.0, 2.0, -3.0),
              BiQuat(0.5, 1e15, 9999999999999998.0, 1e16),
              BiQuat(-1e16, 5e-324, 1.7976931348623157e308, 0.0)):
        plain = format_biquat(q).split(", ")
        assert plain == [repr(int(x) if x.is_integer() and abs(x) < 1e16
                              else x) for x in json_form(q)["re"]]
        assert format_biquat(q, "json") == json.dumps(json_form(q))
    q = BiQuat(1e15, -0.0, 1e16, 0.5)
    assert format_biquat(q) == "1000000000000000, 0, 1e+16, 0.5"
    assert format_biquat(q, "json") == (
        '{"re": [1000000000000000.0, -0.0, 1e+16, 0.5], '
        '"im": [0.0, 0.0, 0.0, 0.0]}')


def test_golden_plain_rendering():
    q = BiQuat(0, -1j * INV_SQRT2, 1j * INV_SQRT2, 0)
    assert format_biquat(q) == ("0, -0.7071067811865476i, "
                                "0.7071067811865476i, 0")


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.builds(complex, _finite, _finite), min_size=4,
                max_size=4),
       st.sampled_from(["plain", "json"]))
@example([complex(-0.0, -0.0), -0.5j, complex(0.0, -0.0), 0j], "json")
@example([complex(-0.0, -0.0), -0.5j, complex(0.0, -0.0), 0j], "plain")
def test_parse_format_roundtrip_keeps_every_bit_but_the_zero_sign(parts,
                                                                   style):
    # The plain style prints a zero as "0", so -0.0 comes back as 0.0
    # (lossy by design, stated in the README); the JSON style keeps its
    # sign.  Every other part, subnormals and the float extremes
    # included, comes back bit for bit in both.
    q = BiQuat(*parts)
    back = parse_biquat(format_biquat(q, style))
    want = [x if x or style == "json" else 0.0
            for c in q for x in (c.real, c.imag)]
    got = [x for c in back for x in (c.real, c.imag)]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_parse_format_roundtrip():
    rng = random.Random(81)
    for _ in range(1000):
        parts = []
        for _ in range(4):
            kind = rng.randrange(4)
            if kind == 0:
                parts.append(complex(rng.randint(-99, 99), 0))
            elif kind == 1:
                parts.append(complex(0, rng.uniform(-10, 10)))
            elif kind == 2:
                parts.append(complex(rng.uniform(-1e6, 1e6),
                                     rng.uniform(-1e-6, 1e-6)))
            else:
                parts.append(complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        q = BiQuat(*parts)
        assert parse_biquat(format_biquat(q, "plain")) == q
        assert parse_biquat(format_biquat(q, "json")) == q


# --- the indented JSON writer --------------------------------------------


_json_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-10 ** 40, 10 ** 40),
    st.floats(), st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf,
                                  5e-324, 1.7976931348623157e308)),
    st.text(), st.text(st.characters(max_codepoint=0x20)),
    st.text(st.characters(min_codepoint=0x7f)),
)
_json_trees = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300)
@given(_json_trees)
def test_json_writer_equals_json_dumps_with_indent(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {"a": 1, "\u00e9": 2.5, "": True, "\n": None, "-0.0": -0.0,
     "inf": math.inf, "big": 10 ** 30},
    {"nested": {"empty": {}, "list": []}},
    "top-level \u00e9 string", 7, -0.0, math.nan, None, True,
])
def test_json_writer_keys_and_top_level_values(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


class _Text(str):
    pass


# Values json writes but no report holds: the writer refuses them.
_JSON_ONLY = [{"level": enum.IntEnum("Level", "LOW")(1)}, [_Text("x")]]


@pytest.mark.parametrize("obj", [
    object(), {"a": 1j}, [1, {2, 3}], {(1, 2): 0}, {"a": [b"x"]},
    *_JSON_ONLY,
])
def test_json_writer_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError) as got:
        cli._json_text(obj)
    if obj in _JSON_ONLY:
        return
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    # A key that is not a str is refused by the string encoder, in its
    # own words; every other refusal is json's, word for word.
    if obj != {(1, 2): 0}:
        assert str(got.value) == str(want.value)


_S_TEXT = repr(INV_SQRT2)


@pytest.mark.parametrize("argv,code", [
    (["entangle", "--p", f"{_S_TEXT}, 0, {_S_TEXT}, 0",
      "--q", f"{_S_TEXT}i, -{_S_TEXT}i, 0, 0"], 0),
    (["entangle", "--p", "0.5, 0.5, 0.5, 0.5",
      "--q", f"{_S_TEXT}i, -{_S_TEXT}i, 0, 0"], 2),
    (["check", "--p", "0, 1, 0, 0", "--q", "1, 0, 0, 0"], 2),
    (["rotate", "--map", "psi", "--q", "0.5, 0.5, 0.5, 0.5",
      "--x", "1, 0.5i, -2, 1+1i"], 0),
    (["polar", "0.5, -1, 2, 0.25"], 0),
    (["verify-theorem", "--samples", "3"], 0),
    (["verify-examples"], 0),
])
def test_every_indented_json_report_is_json_dumps_layout(monkeypatch, argv,
                                                         code):
    seen = []
    writer = cli._json_text
    monkeypatch.setattr(cli, "_json_text",
                        lambda obj: seen.append(obj) or writer(obj))
    got_code, out, err = run_cli(["--json", *argv])
    assert (got_code, err) == (code, "")
    assert len(seen) == 1
    assert out == json.dumps(seen[0], indent=2) + "\n"


# --- subcommands ------------------------------------------------------------

def test_entangle_command_text():
    s = repr(INV_SQRT2)
    code, out, _ = run_cli([
        "entangle", "--p", f"{s},0,{s},0", "--q", f"{s}i,-{s}i,0,0"])
    assert code == 0
    lines = out.splitlines()
    values = {ln.split(":")[0]: ln.split(": ", 1)[1]
              for ln in lines if ": " in ln}
    assert float(values["concurrence before"]) == 0.0
    assert abs(float(values["concurrence after"]) - 1.0) <= 1e-9
    assert values["detail"] == "ok"
    got = parse_biquat(values["result"])
    want = BiQuat(0, -1j * INV_SQRT2, 1j * INV_SQRT2, 0)
    assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want))


def test_entangle_command_json():
    code, out, _ = run_cli([
        "--json", "entangle", "--p", "0.70710678118,0,0.70710678118,0",
        "--q", "0.70710678118i,-0.70710678118i,0,0"])
    assert code == 0
    d = json.loads(out)
    assert d["concurrence_after"] == pytest.approx(1.0, abs=1e-9)
    assert d["report"]["passed"] is True
    assert d["result"]["im"][1] == pytest.approx(-INV_SQRT2, abs=1e-9)


def _library_result(argv) -> BiQuat:
    """What the entangle or rotate command of argv computes, through the
    library."""
    if argv[0] == "entangle":
        return entangle(parse_quat(argv[2]), parse_biquat(argv[4])).result
    kind, q, x = argv[2], parse_biquat(argv[4]), parse_biquat(argv[6])
    if kind == "left":
        return from_quat(rotate_onesided(real_part(q), real_part(x), kind))
    return {"lorentz": lorentz_map, "mu": complex_rotation}[kind](q, x)


@pytest.mark.parametrize("argv", [
    ["entangle", "--p", f"-{_S}, 0, -{_S}, 0", "--q", f"-{_S}i, -{_S}, 0, 0"],
    ["entangle", "--p", "-0.6, 0, 0.8, 0", "--q", "0.6, 0.8i, 0, 0"],
    ["entangle", "--p", "0, 0, 0.9353335680486682, -0.35376703701920487",
     "--q", "-0.0733+5e-324i, 0, -0.312245512887238+0.9471693880620222i, 0"],
    ["rotate", "--map", "left", "--q", "-1, 0, 0, 0",
     "--x", "0, 5e-324, 0, 2"],
    ["rotate", "--map", "lorentz", "--q", "-1, 0, 0, 0",
     "--x", "-0-0i, 5e-324i, -0, 1e-310i"],
    ["rotate", "--map", "mu", "--q", "-1, 0, 0, 0",
     "--x", "-0-0i, 5e-324i, -0, 1e-310i"],
], ids=["entangle-neg-zero", "entangle-float-amps", "entangle-subnormal",
        "rotate-left", "rotate-lorentz", "rotate-mu"])
def test_report_result_parses_back_bit_for_bit(argv):
    # Each result holds a negative zero or a subnormal, which the report's
    # JSON form must carry through parse_biquat.
    code, out, err = run_cli(["--json", *argv])
    assert (code, err) == (0, "")
    back = parse_biquat(json.dumps(json.loads(out)["result"]))
    want = _library_result(argv)
    parts = [x for c in want for x in (c.real, c.imag)]
    assert any(math.copysign(1.0, x) < 0.0 if x == 0.0
               else abs(x) < sys.float_info.min for x in parts)
    assert ([x.hex() for c in back for x in (c.real, c.imag)]
            == [x.hex() for x in parts])


def test_entangle_command_rejection():
    code, out, _ = run_cli([
        "entangle", "--p", "0.5,0.5,0.5,0.5",
        "--q", "0.70710678118i,-0.70710678118i,0,0"])
    assert code == 2
    assert out.startswith("rejected: ")
    assert "R3: FAIL" in out


_README_ENTANGLE = ["entangle",
                    "--p", "0.7071067811865476, 0, 0.7071067811865476, 0",
                    "--q", "0.7071067811865476i, -0.7071067811865476i, 0, 0"]
_README_CHECK = ["check", "--p", "0, 1, 0, 0", "--q", "1, 0, 0, 0"]


@pytest.mark.parametrize("argv,code,want", [
    (_README_ENTANGLE, 0,
     "result: 0, -0.7071067811865477i, 0.7071067811865477i, 0\n"
     "concurrence before: 0\n"
     "concurrence after: 1.0000000000000004\n"
     "R1: pass\nR2: pass\nR3: pass\n"
     "rotor support: [1, 3]   state support: [1, 2]\n"
     "rotor concurrence: 0\n"
     "detail: ok\n"),
    (_README_CHECK, 2,
     "R1: pass\nR2: FAIL\nR3: FAIL\n"
     "rotor support: [2]   state support: [1]\n"
     "rotor concurrence: 0\n"
     "detail: R2: rotor is a single basis direction; R3: rotor support "
     "[2] shares 0 directions with state support [1], need exactly 1\n"),
])
def test_readme_gate_examples_print_exactly(argv, code, want):
    assert run_cli(argv) == (code, want, "")


def test_readme_gate_examples_json_exactly():
    code, out, err = run_cli(["--json"] + _README_ENTANGLE)
    assert (code, err) == (0, "")
    assert out == json.dumps({
        "result": {"re": [0.0, 0.0, 0.0, 0.0],
                   "im": [0.0, -0.7071067811865477, 0.7071067811865477,
                          0.0]},
        "concurrence_before": 0.0,
        "concurrence_after": 1.0000000000000004,
        "report": {"r1_pass": True, "r2_pass": True, "r3_pass": True,
                   "passed": True, "p_support": [1, 3], "q_support": [1, 2],
                   "concurrence_p": 0.0, "detail": "ok"}}, indent=2) + "\n"
    code, out, err = run_cli(["--json"] + _README_CHECK)
    assert (code, err) == (2, "")
    assert out == json.dumps({
        "r1_pass": True, "r2_pass": False, "r3_pass": False,
        "passed": False, "p_support": [2], "q_support": [1],
        "concurrence_p": 0.0,
        "detail": "R2: rotor is a single basis direction; R3: rotor support "
                  "[2] shares 0 directions with state support [1], need "
                  "exactly 1"}, indent=2) + "\n"


def test_concurrence_command():
    code, out, _ = run_cli(["concurrence",
                            "0.70710678118,0,0,0.70710678118"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_from_stdin():
    code, out, _ = run_cli(["--json", "concurrence", "-"],
                           stdin_text="1,0,0,0\n")
    assert code == 0
    assert json.loads(out) == {"concurrence": 0.0}


@pytest.mark.parametrize("text", [
    # The layout of a --json report's result, and the comma form followed
    # by its newline.
    json.dumps({"re": [INV_SQRT2, 0.0, 0.0, 0.0],
                "im": [0.0, 0.0, 0.0, INV_SQRT2]}, indent=2) + "\n",
    f"{_S}, 0, 0, {_S}i\n",
], ids=["indented-json", "comma"])
def test_concurrence_reads_all_of_standard_input(text):
    want = run_cli(["concurrence", f"{_S}, 0, 0, {_S}i"])
    assert want[0] == 0
    assert run_cli(["concurrence", "-"], stdin_text=text) == want


def test_check_command_exit_codes():
    code, out, _ = run_cli(["check", "--p", "0,1,0,0", "--q", "1,0,0,0"])
    assert code == 2
    assert "R2: FAIL" in out
    code, out, _ = run_cli([
        "check", "--p", "0.70710678118,0,0.70710678118,0",
        "--q", "0.70710678118i,-0.70710678118i,0,0"])
    assert code == 0
    assert "detail: ok" in out


def test_rotate_command_maps():
    s = "0.7071067811865476"
    code, out, _ = run_cli(["rotate", "--map", "left",
                            "--q", f"{s},{s},0,0", "--x", "0,0,1,0"])
    assert code == 0
    got = parse_biquat(out.strip())
    assert abs(got.c3 - INV_SQRT2) <= 1e-12 and abs(got.c4 - INV_SQRT2) <= 1e-12

    code, out, _ = run_cli(["rotate", "--map", "right",
                            "--q", f"{s},{s},0,0", "--x", "0,0,1,0"])
    got = parse_biquat(out.strip())
    assert abs(got.c4 + INV_SQRT2) <= 1e-12

    c = repr(math.cos(math.pi / 4))
    code, out, _ = run_cli(["rotate", "--map", "psi",
                            "--q", f"{c},0,0,{c}", "--x", "1i,0,0,0"])
    assert code == 0
    got = parse_biquat(out.strip())  # central elements are fixed points
    assert abs(got.c1 - 1j) <= 1e-12
    assert got.c2 == got.c3 == got.c4 == 0

    code, out, _ = run_cli(["rotate", "--map", "mu",
                            "--q", f"{c},0,0,{c}", "--x", "0,1,0,0"])
    got = parse_biquat(out.strip())
    assert abs(got.c3 + 1.0) <= 1e-12

    ch, sh = repr(math.cosh(0.5)), repr(math.sinh(0.5))
    code, out, _ = run_cli(["rotate", "--map", "lorentz",
                            "--q", f"{ch},{sh}i,0,0", "--x", "1,0,0,0"])
    got = parse_biquat(out.strip())
    assert abs(got.c1 - math.cosh(1.0)) <= 1e-12
    assert abs(got.c2 - 1j * math.sinh(1.0)) <= 1e-12


def test_rotate_command_conj_and_errors():
    s = "0.7071067811865476"
    code, out, _ = run_cli(["rotate", "--map", "conj",
                            "--q", f"{s},{s},0,0", "--x", "0,0,1,0"])
    assert code == 0
    got = parse_biquat(out.strip())
    assert abs(got.c4 - 1.0) <= 1e-12

    code, _, err = run_cli(["rotate", "--map", "conj",
                            "--q", "1i,0,0,0", "--x", "0,0,1,0"])
    assert code == 1
    assert "real quaternion" in err

    code, _, err = run_cli(["rotate", "--map", "psi",
                            "--q", "2,0,0,0", "--x", "1,0,0,0"])
    assert code == 1
    assert "unit norm" in err


@pytest.mark.parametrize("flag", [[], ["--json"]])
@pytest.mark.parametrize("kind", ["left", "right", "conj", "psi", "lorentz",
                                  "mu"])
def test_rotate_refuses_a_non_finite_result(kind, flag):
    # Every input is finite and so is the true left rotation (its second
    # component is 1.7e308), but the float sums overflow partway through.
    big = ",".join(["1.7e308"] * 4)
    code, out, err = run_cli([*flag, "rotate", "--map", kind,
                              "--q", "0.5,0.5,0.5,0.5", "--x", big])
    assert (code, out) == (1, "")
    assert err.startswith("biquat: error: non-finite result")


def test_polar_command():
    code, out, _ = run_cli(["polar", "1,1,0,0"])
    assert code == 0
    assert "magnitude: 1.4142135623730951" in out
    assert "angle: 0.7853981633974483" in out
    assert "axis: 1, 0, 0" in out
    code, out, _ = run_cli(["--json", "polar", "3,0,0,0"])
    d = json.loads(out)
    assert d["degenerate"] is True
    assert d["magnitude"] == 3


def _strict_json(text):
    return json.loads(text, parse_constant=lambda name: pytest.fail(name))


def test_polar_command_at_extreme_magnitudes():
    code, out, _ = run_cli(["polar", "1e200, 1e200, 1e200, 1e200"])
    assert code == 0
    assert out.splitlines()[:2] == ["magnitude: 2e+200",
                                    "angle: 1.0471975511965979"]
    code, out, _ = run_cli(["--json", "polar", "1e200, 1e200, 1e200, 1e200"])
    assert code == 0
    assert _strict_json(out)["magnitude"] == 2e200
    code, out, _ = run_cli(["--json", "polar", "1e-170, 1e-170, 0, 0"])
    assert code == 0
    assert _strict_json(out)["magnitude"] == pytest.approx(
        math.sqrt(2) * 1e-170, rel=1e-15)
    code, out, _ = run_cli(["polar", "0, 0, 5e-324, 0"])
    assert code == 0
    assert "magnitude: 5e-324" in out


def test_polar_command_refuses_a_magnitude_beyond_the_floats():
    code, out, err = run_cli(["polar", "1.7976931348623157e308, 0, 0, "
                                       "1.7976931348623157e308"])
    assert code == 1
    assert out == ""
    assert "not a finite float" in err


def test_verify_theorem_command():
    code, out, _ = run_cli(["verify-theorem", "--samples", "20",
                            "--seed", "7"])
    assert code == 0
    assert "overall: 8/8 cases pass" in out
    code, out, _ = run_cli(["--json", "verify-theorem", "--samples", "5"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_theorem_failure_exit_code(monkeypatch):
    class _Stub:
        all_pass = False

        def to_text(self):
            return "stub: 7/8 cases pass"

        def to_dict(self):
            return {"all_pass": False}

    monkeypatch.setattr("biquat.verify.verify_theorem",
                        lambda samples, seed: _Stub())
    code, out, _ = run_cli(["verify-theorem"])
    assert code == 3
    assert "stub" in out


def test_verify_examples_command():
    code, out, _ = run_cli(["verify-examples"])
    assert code == 0
    assert "overall: pass" in out
    assert "sign differs" in out


def test_sweep_stdout():
    code, out, _ = run_cli(["sweep", "--grid", "3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "beta", "a_i", "a_j", "concurrence",
                       "maximal"]
    assert len(rows) == 1 + 3 ** 4
    maximal = [r for r in rows[1:] if r[5] == "1"]
    assert len(maximal) == 9
    for r in maximal:
        assert float(r[4]) >= 1.0 - 1e-9


def test_sweep_contains_the_maximal_point():
    code, out, _ = run_cli(["sweep", "--grid", "5"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    hits = [r for r in rows
            if abs(float(r[2]) - INV_SQRT2) <= 1e-12
            and abs(float(r[4]) - 1.0) <= 1e-9]
    assert hits
    assert all(r[5] == "1" for r in hits)


def test_sweep_deterministic_and_file_output(tmp_path):
    _, first, _ = run_cli(["sweep", "--grid", "2"])
    _, second, _ = run_cli(["sweep", "--grid", "2"])
    assert first == second

    target = tmp_path / "grid.csv"
    code, out, _ = run_cli(["sweep", "--grid", "2", "--out", str(target)])
    assert code == 0
    assert "wrote 16 rows" in out
    assert target.read_text().splitlines()[0].startswith("alpha,")


def _reference_sweep(n):
    """(CSV text, maximal rows) of an N^4 sweep as csv.writer wrote it,
    each concurrence through the full sandwich, bmul(bmul(p, q), p)."""
    from biquat.biquaternion import bmul
    from biquat.entanglement import (StateAmp, Variant, _concurrence,
                                     embed_state)
    half_pi = math.pi / 2.0
    mix = [half_pi * k / (n - 1) for k in range(n)] if n > 1 else [half_pi / 2]
    phase = [2.0 * math.pi * k / n for k in range(n)]
    rotors = [(math.cos(t), math.sin(t)) for t in mix]
    text, maximal = io.StringIO(newline=""), 0
    writer = csv.writer(text)
    writer.writerow(["alpha", "beta", "a_i", "a_j", "concurrence",
                     "maximal"])
    for tq in mix:
        for pa in phase:
            alpha = math.cos(tq) * complex(math.cos(pa), math.sin(pa))
            for pb in phase:
                beta = math.sin(tq) * complex(math.cos(pb), math.sin(pb))
                q = embed_state(StateAmp(alpha, beta, Variant.V12))
                for ai, aj in rotors:
                    p = Quat(ai, 0.0, aj, 0.0)
                    c = _concurrence(bmul(bmul(p, q), p))
                    is_max = c >= 1.0 - DEFAULT_TOL
                    maximal += is_max
                    writer.writerow([format_complex(alpha),
                                     format_complex(beta), repr(ai),
                                     repr(aj), repr(c), int(is_max)])
    return text.getvalue(), maximal


@pytest.mark.parametrize("n", range(1, 7))
def test_sweep_writes_the_bytes_of_csv_writer_over_the_full_sandwich(
        n, tmp_path):
    want, maximal = _reference_sweep(n)
    code, out, err = run_cli(["sweep", "--grid", str(n)])
    assert (code, out, err) == (0, want, "")
    target = tmp_path / "grid.csv"
    code, out, err = run_cli(["--json", "sweep", "--grid", str(n),
                              "--out", str(target)])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"rows": n ** 4, "maximal_rows": maximal,
                               "out": str(target)}
    assert target.read_bytes() == want.encode("ascii")


def test_sweep_rejects_bad_grid():
    code, _, err = run_cli(["sweep", "--grid", "0"])
    assert code == 1
    assert "--grid" in err


# --- exit codes and the command table's reader -----------------------------

def test_exit_code_zero():
    assert run_cli(["concurrence", "1,0,0,0"])[0] == 0


def test_exit_code_one_on_parse_error():
    code, _, err = run_cli(["concurrence", "1,2,3"])
    assert code == 1
    assert "parse error" in err


def test_exit_code_one_on_usage_error():
    assert run_cli(["frobnicate"])[0] == 1
    assert run_cli([])[0] == 1
    assert run_cli(["rotate", "--map", "sideways", "--q", "1,0,0,0",
                    "--x", "1,0,0,0"])[0] == 1


def test_exit_code_one_on_domain_error():
    code, _, err = run_cli(["polar", "0,0,0,0"])
    assert code == 1
    assert "no polar form" in err


def test_help_exits_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    # The help lists every command of the table, with its help text.
    flat = " ".join(out.split())
    for name, (help_, _) in cli._COMMANDS.items():
        assert f"{name} {help_}" in flat


@pytest.mark.parametrize("argv", [
    ["--help"], ["entangle", "--help"], ["polar", "1,2,3,4"],
    ["sweep", "--grid", "2"], ["--json", "verify-examples"]])
def test_output_into_a_closed_pipe_is_one_error_line(argv):
    # Help text and a command's output alike: exit 1 and one line naming
    # the error, never a traceback.  Unbuffered, the write fails inside
    # main; buffered, as Python's stdout into a pipe is by default, the
    # output is still held when main returns, and the interpreter's final
    # flush must not fail it again.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({"PYTHONUNBUFFERED": "1"}, {}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "biquat", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env={**env, "PYTHONPATH": src, **unbuffered},
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (
            1, "biquat: [Errno 32] Broken pipe\n"), unbuffered


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts the entries of /proc/self/fd")
def test_a_failed_flush_leaks_no_descriptor(monkeypatch):
    # After a failed flush, main points stdout at the null device, so
    # that the final flush cannot fail again; the descriptor it opens for
    # that is closed, so main can run again and again in one process.
    read_end, write_end = os.pipe()
    os.close(read_end)
    err = io.StringIO()
    with open(write_end, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        before = len(os.listdir("/proc/self/fd"))
        with redirect_stderr(err):
            code = main(["polar", "1, 2, 3, 4"])
        after = len(os.listdir("/proc/self/fd"))
    assert (code, err.getvalue()) == (1, "biquat: [Errno 32] Broken pipe\n")
    assert after == before


# A standard stream that is closed when Python starts is None in sys:
# argv, the stream closed, and the one line the CLI writes instead.
_CLOSED_STREAMS = [
    (["polar", "1, 0, 0, 0"], "stdout", "standard output is closed"),
    (["sweep", "--grid", "1"], "stdout", "standard output is closed"),
    (["--help"], "stdout", "standard output is closed"),
    (["concurrence", "-"], "stdin", "standard input is closed"),
]


@pytest.mark.parametrize("argv, stream, message", _CLOSED_STREAMS)
def test_a_closed_standard_stream_is_one_error_line(monkeypatch, argv,
                                                    stream, message):
    monkeypatch.setattr(sys, stream, None)
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (1, f"biquat: error: {message}\n")


@pytest.mark.parametrize("argv, stream, message", _CLOSED_STREAMS)
def test_a_closed_standard_stream_in_a_process_is_one_error_line(
        argv, stream, message):
    # The shell closes the descriptor before Python starts, as the
    # console-script step of CI does.
    src = str(Path(cli.__file__).resolve().parents[1])
    closed = {"stdin": "0<&-", "stdout": "1>&-"}[stream]
    done = subprocess.run(
        f"{shlex.join([sys.executable, '-m', 'biquat', *argv])} {closed}",
        shell=True, env={**os.environ, "PYTHONPATH": src},
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", f"biquat: error: {message}\n")


# name -> (argv, the program its usage line names, the error message).
_USAGE_ERRORS = {
    "unknown-command": (["bogus"], "biquat",
                        "argument command: invalid choice: 'bogus'"),
    "no-command": ([], "biquat",
                   "the following arguments are required: command"),
    "missing-option": (["entangle", "--p", "1,0,0,0"], "biquat entangle",
                       "the following arguments are required: --q"),
    "missing-positional": (["polar"], "biquat polar",
                           "the following arguments are required: QUAT"),
    "bad-choice": (["rotate", "--map", "sideways", "--q", "1,0,0,0",
                    "--x", "1,0,0,0"], "biquat rotate",
                   "argument --map: invalid choice: 'sideways'"),
    "bad-int": (["verify-theorem", "--samples", "x"], "biquat verify-theorem",
                "argument --samples: invalid int value: 'x'"),
    "unknown-option": (["polar", "--bogus", "1,0,0,0"], "biquat polar",
                       "unrecognized arguments: --bogus"),
    "ambiguous-option": (["verify-theorem", "--s", "3"],
                         "biquat verify-theorem",
                         "ambiguous option: --s could match --samples, "
                         "--seed"),
    "second-positional": (["polar", "1,0,0,0", "1,0,0,0"], "biquat polar",
                          "unrecognized arguments: 1,0,0,0"),
    "option-for-value": (["check", "--p", "--q", "1,0,0,0"], "biquat check",
                         "argument --p: expected one argument"),
}


@pytest.mark.parametrize("argv,prog,message", _USAGE_ERRORS.values(),
                         ids=_USAGE_ERRORS)
def test_usage_error_prints_usage_then_error(argv, prog, message):
    code, out, err = run_cli(argv)
    lines = err.splitlines()
    assert (code, out) == (1, "")
    assert lines[0].startswith(f"usage: {prog}")
    assert lines[-1].startswith(f"{prog}: error: {message}")


@pytest.mark.parametrize("argv", [
    ["polar", "-1,0,0,0"],
    ["concurrence", f"-{INV_SQRT2!r}i,0,0,-{INV_SQRT2!r}i"],
    ["check", "--p", "-0.6,0.8,0,0", "--q", "1,0,0,0"],
    ["entangle", "--p", f"{INV_SQRT2!r},0,{INV_SQRT2!r},0",
     "--q", f"-{INV_SQRT2!r}i,{INV_SQRT2!r}i,0,0"],
])
def test_dash_led_values_read_as_their_spaced_form(argv):
    # A value led by "-" with no space in it is a value like any other.
    spaced = [token.replace(",", ", ") for token in argv]
    code, out, err = run_cli(argv)
    assert code in (0, 2) and err == ""
    assert (code, out, err) == run_cli(spaced)


def test_main_calls_the_handler_bound_now(monkeypatch):
    monkeypatch.setattr(cli, "_cmd_polar", lambda ns: 3)
    assert run_cli(["polar", "1,0,0,0"]) == (3, "", "")
    assert run_cli(["--js", "polar", "1,0,0,0"]) == (3, "", "")


_QUATS = (
    "1,0,0,0", "0,1,0,0", f"{_S}, 0, {_S}, 0", f"{_S}i, -{_S}i, 0, 0",
    f"{_S}, 0, 0, {_S}i", "0.5+0.5i, -0.5i, 0, 1", "1i,0,0,0", "0,0,0,0",
    "1e200, 1e200, 1e200, 1e200", "1e-170, 1e-170, 0, 0", "1e999,0,0,0",
    '{"re":[1,0,0,0],"im":[0,0,0,0]}', '{"re":[NaN,0,0,0],"im":[0,0,0,0]}',
    "1,2,3", "1,2x,3,4", "{bad", "",
)
_NUMBERS = ("-1", "0", "1", "2", "x", "1.5")
_FUZZ_OPTIONS = {  # option (None: the positional) -> values to try
    "entangle": (("--p", _QUATS), ("--q", _QUATS)),
    "check": (("--p", _QUATS), ("--q", _QUATS)),
    "rotate": (("--map", ("left", "right", "conj", "psi", "lorentz", "mu",
                          "sideways")),
               ("--q", _QUATS), ("--x", _QUATS)),
    "concurrence": ((None, _QUATS + ("-",)),),
    "polar": ((None, _QUATS),),
    "verify-theorem": (("--seed", _NUMBERS),),
    "verify-examples": (),
    "sweep": (("--out", ("-", "grid.csv", "")),),
    "bogus": (),
}
_FUZZ_NOISE = ("--json", "--help", "-h", "--", "--bogus", "--p", "--samples",
               "--grid", "-", *_FUZZ_OPTIONS, *_QUATS, *_NUMBERS)


@st.composite
def _argv(draw):
    """A command with each of its options given or not, plus noise."""
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [*draw(st.lists(st.just("--json"), max_size=1)), command]
    for option, values in _FUZZ_OPTIONS[command]:
        if draw(st.integers(0, 5)):
            argv += [option] if option else []
            argv.append(draw(st.sampled_from(values)))
    for token in draw(st.lists(st.sampled_from(_FUZZ_NOISE), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    # A trailing --samples/--grid keeps verify-theorem and sweep small.
    bound = draw(st.sampled_from(("-1", "0", "1", "2", "x")))
    if "verify-theorem" in argv:
        argv += ["--samples", bound]
    if "sweep" in argv:
        argv += ["--grid", bound]
    return argv


@settings(max_examples=200)
@given(_argv())
def test_fuzzed_argv_exits_0_to_3_without_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # where a fuzzed --out writes
        try:
            code, _, err = run_cli(argv, stdin_text="1,0,0,0\n")
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv


# --- the reader against argparse -------------------------------------------

@functools.cache
def _reference_parser():
    """The argparse parser the CLI was once read with, made from the same
    table: every argv it accepts, the reader must read alike.  Built once:
    ``parse_args`` makes a fresh namespace on every call."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    top = _Parser(prog="biquat")
    top.add_argument("--json", action="store_true", default=False)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return top


def _argparse_vars(argv):
    """vars() of the reference parser's namespace; None on an exit."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_reference_parser().parse_args(argv))
        except SystemExit:
            return None


def _reader_vars(argv):
    """The reader's namespace for ``argv``; None for help or an error."""
    try:
        return cli._read_argv(argv)
    except cli._Stop:
        return None


def _typed(ns):
    # True == 1, so equal dicts could still differ in a value's type.
    return None if ns is None else {k: (type(v), v) for k, v in ns.items()}


def _assert_reader_agrees(argv):
    got = _reader_vars(argv)
    # argparse reads "--" differently from one Python version to the next;
    # the reader's "--" forms are pinned in _DOUBLE_DASH instead.
    want = None if "--" in argv else _argparse_vars(argv)
    assert want is None or _typed(got) == _typed(want), argv


@settings(max_examples=300)
@given(_argv())
def test_reader_reads_argv_as_argparse_does(argv):
    _assert_reader_agrees(argv)


# Tokens whose reading turns on an argparse detail: negative values with
# and without a space, the -h prefix, other dash forms, abbreviations, the
# empty token, and a second positional.
_EDGE_TOKENS = ("-1", "-0.5", "-0.5i, 0, 0, 1", "-1, 0, 0, 0",
                "-h 1, 0, 0, 0", "-q", "-x y=1", "--p=1,0,0,0", "--json=1",
                "--js", "--sam", "--", "-h", "", "-", "1,0,0,0", " 7", "+7")
_VALUED = {"--p", "--q", "--map", "--x", "--samples", "--seed", "--grid",
           "--out"}


@st.composite
def _edge_argv(draw):
    """An argv the reader takes, with edge tokens put in place of some of
    its tokens, between them, or as the value of a repeated option."""
    argv = draw(_argv().filter(lambda a: _reader_vars(a) is not None))
    edge = st.sampled_from(_EDGE_TOKENS)
    for _ in range(draw(st.integers(0, 2))):
        argv[draw(st.integers(0, len(argv) - 1))] = draw(edge)
    for token in draw(st.lists(edge, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    given_at = [k for k, token in enumerate(argv[:-1]) if token in _VALUED]
    if given_at and draw(st.booleans()):  # the same option once more
        k = draw(st.sampled_from(given_at))
        argv += [argv[k], draw(st.one_of(st.just(argv[k + 1]), edge))]
    return argv


@settings(max_examples=500)
@given(_edge_argv())
def test_reader_reads_edge_case_argv_as_argparse_does(argv):
    _assert_reader_agrees(argv)


def _readme_argvs():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return [shlex.split(line)[1:]
            for line in text.replace("\\\n", " ").splitlines()
            if line.startswith("biquat ")]


_WELL_FORMED = [
    ["entangle", "--p", "0, 1, 0, 0", "--q", "-0.5i, 0, 0, 1"],
    ["concurrence", "-"],
    ["check", "--q", "1,0,0,0", "--p", "0,1,0,0"],
    ["rotate", "--map", "mu", "--q", "1,0,0,0", "--x", "-1, 0, 0, 0"],
    ["polar", "1,1,0,0"],
    ["verify-theorem", "--seed", "3"],
    ["verify-examples"],
    ["sweep", "--out", "-", "--grid", " 2"],
]

# The "--" forms, read by the rule that every token after the first "--"
# is positional, with the namespace each one gets (None: a usage error).
_DOUBLE_DASH = [
    (["polar", "--", "-1,0,0,0"], {"value": "-1,0,0,0"}),
    (["polar", "1,0,0,0", "--"], {"value": "1,0,0,0"}),
    (["polar", "--", "--"], {"value": "--"}),
    (["polar", "--", "-h"], {"value": "-h"}),
    (["polar", "--", "--json"], {"value": "--json"}),
    (["polar", "--json", "--", "1,0,0,0"], {"json": True, "value": "1,0,0,0"}),
    (["--", "polar", "1,0,0,0"], {"value": "1,0,0,0"}),
    (["concurrence", "--", "-"], {"command": "concurrence", "state": "-"}),
    (["verify-examples", "--"], {"command": "verify-examples"}),
    (["check", "--p", "1,0,0,0", "--q", "x", "--"],
     {"command": "check", "p": "1,0,0,0", "q": "x"}),
    (["polar", "--", "1,0,0,0", "--"], None),
    (["polar", "--", "1,0,0,0", "x"], None),
    (["check", "--p", "1,0,0,0", "--", "--q", "x"], None),
    (["sweep", "--out", "--"], None),
    (["polar", "--"], None),
]


def test_reader_reads_every_documented_and_golden_argv():
    # A reader that refused everything would pass the property tests.
    from test_golden import GOLDEN

    readme = _readme_argvs()
    assert {argv[0] for argv in readme} == set(cli._COMMANDS)
    golden = [argv for argv, _ in GOLDEN.values() if "--help" not in argv]
    for argv in [*readme, *golden, *_WELL_FORMED]:
        for form in (argv, ["--json", *argv], [*argv, "--json"]):
            got = _reader_vars(form)
            assert got is not None, form
            assert _typed(got) == _typed(_argparse_vars(form)), form
    for argv, want in _DOUBLE_DASH:
        if want is not None:
            want = {"json": False, "command": "polar", **want}
        assert _typed(_reader_vars(argv)) == _typed(want), argv


@pytest.mark.parametrize("argv,read", [
    (["--json", "polar", "1, 1, 0, 0"], True),
    (["--js", "polar", "--help"], False),
    (["polar", "1, 1, 0, 0", "extra"], False),
])
def test_main_reads_sys_argv_when_argv_is_none(monkeypatch, argv, read):
    assert (_reader_vars(argv) is not None) == read
    want = run_cli(argv)
    monkeypatch.setattr(sys, "argv", ["biquat", *argv])
    assert run_cli(None) == want
