"""Hypothesis fuzz test of the CLI exit-code contract.

Arguments are drawn from the whole subcommand grammar, with malformed
values and inline group/element JSON mixed in, and kept inside the
existing caps so each call stays cheap.  Whatever the input: the exit
code is 0, 1 or 2, no exception escapes ``main``, and the code is 1
exactly when some stage of the report failed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from whcalc.cli import main

small = st.integers(-3, 12)
junk = st.sampled_from(["", "x", "1.5", "-", "1e3", "[]", "{"])


def coeffs(order):
    """Coefficient lists, mostly of the length ``order`` asks for."""
    def text(size):
        return st.lists(st.integers(-3, 3), min_size=size, max_size=size).map(
            lambda cs: ",".join(map(str, cs)))
    fitting = text(order) if order > 0 else st.nothing()
    return fitting | st.integers(1, 9).flatmap(text) | st.sampled_from(
        ["1,0,0,0,0,0,0", "2,2,0,-1,-1,-1,0", "1,,2"]) | junk


def maybe(values):
    return st.none() | values


def command(*words, **flags):
    """argv of fixed or drawn words, then ``--flag=value`` for each flag
    whose drawn value is not None."""
    words = [w if isinstance(w, st.SearchStrategy) else st.just(w) for w in words]
    names = [n.replace("_", "-") for n in flags]
    return st.tuples(st.tuples(*words), st.tuples(*flags.values())).map(
        lambda t: [w for w in t[0] if w is not None]
        + [f"--{n}={v}" for n, v in zip(names, t[1]) if v is not None])


def matrix(rows, cols):
    return st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def spoil(data, draw, values):
    """Sometimes replace one field of ``data`` by a malformed value."""
    if draw(st.booleans()):
        data[draw(st.sampled_from(sorted(data)))] = draw(st.sampled_from(values))
    return data


@st.composite
def inline_group(draw):
    g = draw(st.integers(0, 2))
    ident = [[int(i == j) for j in range(g)] for i in range(g)]
    data = {"generators": g,
            "relations": draw(matrix(g, draw(st.integers(0, 2)))),
            "involution": draw(st.just(ident) | matrix(g, g))}
    return json.dumps(spoil(data, draw, [None, -1, "x", [], [[1, 2], [3]]]))


targets = st.one_of(
    st.sampled_from([f"{a}-{s}" for a in ("z", "z2", "z3", "z4", "z6", "z2xz2")
                     for s in ("trivial", "sign")]),
    st.sampled_from(["z5-trivial", "z2-odd", "z2", "{", '{"generators": 1}']),
    inline_group())


@st.composite
def element(draw):
    p = draw(st.integers(-3, 64))
    faces = st.sampled_from(["0", "1", "2", "3", "01", "12", "012"])
    data = {"p": p, "target": draw(targets | st.integers()),
            "face_values": draw(st.dictionaries(
                faces, st.lists(st.integers(-2, 2), max_size=2), max_size=5))}
    return json.dumps(spoil(data, draw, [None, "0", [], {"zz": [1]}, {"0": 1}]))


commands = st.one_of(
    small.flatmap(lambda o: command("unit", "verify", order=st.just(o),
                                    coeffs=coeffs(o))),
    small.flatmap(lambda o: command("wh", "eq", order=st.just(o),
                                    x=coeffs(o), y=coeffs(o))),
    command("homology", target=targets, n=st.integers(-2, 4)),
    command("tate", target=targets, n=st.integers(-4, 4)),
    command("falg", "pi", target=targets, n=st.integers(-1, 4)),
    command("falg", "check", element=element() | junk),
    command("subcomplex", "enum", maybe(st.just("--all")), p=st.integers(-2, 4)),
    small.flatmap(lambda o: command(
        "torsion", st.sampled_from(["compose", "reverse", "double", "frob"]),
        d=st.integers(-2, 12), order=st.just(o), u=coeffs(o),
        twist=maybe(small), u2=maybe(coeffs(o)), twist2=maybe(small))),
    command("lens", "inertia", p=maybe(small), k=maybe(small),
            unit=maybe(coeffs(7))),
    command("lens", "report-theorem-a", k=st.integers(-1, 3),
            unit=maybe(coeffs(7))),
    command("kapp", "tor", p=small, i=st.integers(-2, 6)),
    command("kapp", "k3", p=small),
    st.lists(st.sampled_from(["frobnicate", "unit", "falg", "--p", "7"]),
             max_size=3),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=commands, json_first=st.booleans(),
       cap=command(max_p=maybe(st.integers(0, 11))))
def test_exit_code_contract(argv, json_first, cap):
    argv = (["--json"] + argv if json_first else argv + ["--json"]) + cap
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        return
    stages = json.loads(out.getvalue())["stages"]
    assert (code == 1) == any(s["status"] == "failed" for s in stages)
