"""Command-line front end: verification subcommands with deterministic
JSON or plain-text reports.

Exit codes: 0 when every stage is verified/derived/assumed, 1 when any
stage failed, 2 for usage errors (unknown command, malformed input,
exceeded caps).

Every command runs in a fresh process, so start-up is paid per command.
On a 2-vCPU Xeon host with Python 3.11.7 (the median, and the least in
brackets, of 25 fresh processes; the import as ``python -X importtime``
reports it), the interpreter and ``site`` took 77 ms (57 ms), and
``import whcalc.cli`` 47 ms (32 ms) with the sources compiled afresh
(``PYTHONDONTWRITEBYTECODE=1``) and 11.5 ms (8.4 ms) from cached
bytecode: compiling is three quarters of the import.  Before the freeze
below, the exit took 5.4 ms.

Only ``abelian``, ``falg``, ``simplicial``, ``report`` and what they
import (``lattice``, ``_snf``, ``_value``) load with this module; each
handler imports ``groupring``, ``torsion``, ``lens`` or ``ktheory`` when
it runs.  ``falg``, ``abelian`` and ``simplicial`` stay eager on
purpose: the benchmark's cold-cache check looks for their lru caches
right after ``import whcalc.cli`` and refuses a run that lacks them.
No whcalc module uses the standard library's data classes, whose import
and generated methods are costly; the value classes derive from
``whcalc._value`` instead.

Right after those imports the module calls ``gc.freeze()``, once.  What
is alive then (the interpreter, ``site``, whcalc's modules, classes and
tables) lives until the process exits, so the collector need never walk
it again; most of the exit time was the final collection re-walking it,
and freezing it cuts exit to 1.6 ms.  The collector stays enabled for
everything the command allocates.  The freeze happens at import and in
this entry point only: not in ``main``, which tests call thousands of
times in one process, so each call would freeze the last one's
uncollected cycles; and not in the library modules, which must not
change the collector of a process that merely imports them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import abelian, falg, simplicial
from .report import ASSUMED, DERIVED, FAILED, VERIFIED, ReportDocument

gc.freeze()

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _parse_coeffs(text):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed coefficient list: {text!r}") from exc


def _element(order, text):
    """The group-ring element of ``order`` with coefficients ``text``.

    It is only as large as the typed list; an order above ``ORDER_MAX`` is
    refused by ``groupring.invert_unit``, which every command calls before
    it multiplies anything, and ``main`` maps that ValueError to exit 2."""
    from .groupring import GroupRingElement

    return GroupRingElement(order, _parse_coeffs(text))


_NAMED_TARGETS = {
    "z": [0], "z2": [2], "z3": [3], "z4": [4], "z6": [6],
    "z2xz2": [2, 2],
}


def _parse_target(name):
    """Named targets like z2-trivial / z4-sign, or inline presentation JSON."""
    if name.startswith("{"):
        try:
            return abelian.InvolutiveAbelianGroup.from_dict(json.loads(name))
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise UsageError(f"malformed group JSON: {exc}") from exc
    parts = name.lower().split("-")
    if len(parts) != 2 or parts[0] not in _NAMED_TARGETS \
            or parts[1] not in ("trivial", "sign"):
        raise UsageError(
            f"unknown target {name!r}; use e.g. z2-trivial, z4-sign, "
            "z2xz2-trivial or an inline JSON presentation")
    sign = 1 if parts[1] == "trivial" else -1
    return abelian.InvolutiveAbelianGroup.from_factors(
        _NAMED_TARGETS[parts[0]], sign)


def _check_max_p(args, p):
    """Refuse the prime ``p`` above ``--max-p``; a cap of 0 is a cap too."""
    if args.max_p is not None and p > args.max_p:
        raise UsageError(f"p exceeds the --max-p cap ({args.max_p})")


# -- subcommand handlers --------------------------------------------------


def _cmd_unit_verify(args):
    from .groupring import invert_unit

    doc = ReportDocument("unit verify",
                         {"order": args.order, "coeffs": args.coeffs})
    x = _element(args.order, args.coeffs)
    inv = invert_unit(x)
    if inv is None:
        doc.add("unit-inverse", FAILED,
                {"element": x.to_dict(), "reason": "not a unit",
                 "augmentation": x.augmentation()})
    else:
        doc.add("unit-inverse", VERIFIED,
                {"element": x.to_dict(), "inverse": inv.to_dict()})
    return doc


def _cmd_wh_eq(args):
    from .groupring import NotAUnitError, WhiteheadClass, wh_class_equal

    doc = ReportDocument("wh eq",
                         {"order": args.order, "x": args.x, "y": args.y})
    x = _element(args.order, args.x)
    y = _element(args.order, args.y)
    try:
        cx, cy = WhiteheadClass(x), WhiteheadClass(y)
    except NotAUnitError as exc:
        doc.add("class-equality", FAILED, {"reason": str(exc)})
        return doc
    equal = wh_class_equal(cx, cy)
    doc.add("class-equality", DERIVED, {"equal": equal})
    return doc


def _cmd_homology(args):
    doc = ReportDocument("homology", {"target": args.target, "n": args.n})
    a = _parse_target(args.target)
    h = abelian.homology_c2(a, args.n)
    doc.add("homology", DERIVED, h.to_dict())
    return doc


def _cmd_tate(args):
    doc = ReportDocument("tate", {"target": args.target, "n": args.n})
    a = _parse_target(args.target)
    h = abelian.tate_homology_c2(a, args.n)
    doc.add("tate-homology", DERIVED, h.to_dict())
    return doc


def _cmd_falg_pi(args):
    doc = ReportDocument("falg pi", {"target": args.target, "n": args.n})
    a = _parse_target(args.target)
    pi = falg.moore_homotopy(a, args.n)
    h = abelian.homology_c2(a, args.n)
    status = VERIFIED if pi == h else FAILED
    doc.add("homotopy-group", status,
            {"pi": pi.to_dict(), "independent_homology": h.to_dict()})
    return doc


def _cmd_falg_check(args):
    doc = ReportDocument("falg check", {})
    try:
        data = json.loads(args.element)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed element JSON: {exc}") from exc
    target = data.get("target") if isinstance(data, dict) else None
    group, p, values = falg.FAlgElement.parse_dict(
        data, _parse_target(target) if isinstance(target, str) else None)
    try:
        el = falg.FAlgElement.from_face_values(group, p, values)
    except ValueError as exc:
        doc.add("membership", FAILED, {"reason": str(exc)})
        return doc
    ok = falg.check_square(el.functor)
    doc.add("membership", VERIFIED if ok else FAILED,
            {"p": el.degree, "square_condition": ok})
    return doc


def _cmd_subcomplex_enum(args):
    doc = ReportDocument("subcomplex enum", {"p": args.p, "all": args.all})
    if args.p > 3:
        raise UsageError("exhaustive enumeration is capped at p = 3")
    if args.all:
        complexes = simplicial.enumerate_subcomplexes(args.p)
    else:
        complexes = simplicial.enumerate_contractible_subcomplexes(args.p)
    doc.add("enumeration", DERIVED,
            {"count": len(complexes),
             "complexes": [k.to_dict() for k in complexes]})
    return doc


def _parse_symbol(order, d, coeffs, twist):
    from .groupring import NotAUnitError, WhiteheadClass
    from .torsion import HCobordismSymbol

    x = _element(order, coeffs)
    try:
        cls = WhiteheadClass(x)
    except NotAUnitError as exc:
        raise UsageError(f"torsion is not a unit: {exc}") from exc
    return HCobordismSymbol(d, cls, twist)


def _cmd_torsion(args):
    from .torsion import compose, double, reverse

    doc = ReportDocument(f"torsion {args.op}",
                         {"d": args.d, "order": args.order, "op": args.op})
    w = _parse_symbol(args.order, args.d, args.u, args.twist)
    if args.op == "compose":
        if args.u2 is None:
            raise UsageError("compose needs --u2 (and optionally --twist2)")
        w2 = _parse_symbol(args.order, args.d, args.u2, args.twist2)
        result = compose(w, w2)
    elif args.op == "reverse":
        result = reverse(w)
    else:
        result = double(w)
    doc.add("symbol", DERIVED, result.to_dict())
    return doc


def _cmd_lens_inertia(args):
    from . import lens
    from .groupring import GroupRingElement, WhiteheadClass

    doc = ReportDocument("lens inertia", {"p": args.p, "k": args.k})
    _check_max_p(args, args.p)
    # the unit refuses an unknown or mismatched p before the lens space
    # builds (p - 1) * k weights
    unit = GroupRingElement(args.p, _parse_coeffs(args.unit)) \
        if args.unit is not None else lens.standard_inertia_unit(args.p)
    space = lens.balanced_lens_space(args.p, args.k)
    iner = lens.inertia_set(space, WhiteheadClass(unit))
    doc.add("inertia-set", DERIVED,
            {"lens_space": str(space),
             "cardinality": iner.cardinality,
             "classes": iner.to_list()})
    return doc


def _cmd_lens_report(args):
    from . import lens

    _check_max_p(args, 7)
    unit = _parse_coeffs(args.unit) if args.unit is not None else None
    return lens.discrepancy_report(args.k, unit_coeffs=unit)


def _cmd_kapp_tor(args):
    from . import ktheory

    doc = ReportDocument("kapp tor", {"p": args.p, "i": args.i})
    _check_max_p(args, args.p)
    group = ktheory.tor_pi_r(args.p, args.i)
    expected = [args.p] if args.i % 2 == 0 else []
    status = VERIFIED if list(group.invariant_factors) == expected else FAILED
    doc.add("periodic-resolution-homology", status, group.to_dict())
    return doc


def _cmd_kapp_k3(args):
    from . import ktheory

    doc = ReportDocument("kapp k3", {"p": args.p})
    _check_max_p(args, args.p)
    rep = ktheory.k3_divisibility(args.p)
    doc.add("divisibility", DERIVED, rep)
    for fact in ktheory.load_facts()["facts"]:
        if fact["id"] in ("k3-of-integers", "k3-of-prime-field"):
            doc.add(fact["id"], ASSUMED, {"statement": fact["statement"]},
                    citation=fact["citation"])
    return doc


# -- parser ----------------------------------------------------------------


def _flag_parent(defaults):
    parent = argparse.ArgumentParser(add_help=False)
    kw = {} if defaults else {"default": argparse.SUPPRESS}
    parent.add_argument("--json", action="store_true",
                        help="emit the full report as JSON", **kw)
    parent.add_argument("--out", metavar="PATH",
                        help="write the report to a file instead of stdout",
                        **({"default": None} if defaults else kw))
    parent.add_argument("--max-p", type=int,
                        help="reject prime parameters above this cap",
                        **({"default": None} if defaults else kw))
    return parent


def build_parser():
    parser = argparse.ArgumentParser(
        prog="whcalc", parents=[_flag_parent(defaults=True)],
        description="exact verification of torsion calculus, homology of "
                    "the order-two symmetry, and lens-space inertia sets")
    sub = parser.add_subparsers(dest="group_cmd", required=True)

    # leaf parsers accept the same flags after the subcommand without
    # clobbering values already parsed before it
    common = _flag_parent(defaults=False)

    def leaf(subparsers, name, **kw):
        return subparsers.add_parser(name, parents=[common], **kw)

    unit = sub.add_parser("unit", help="group-ring unit operations")
    unit_sub = unit.add_subparsers(dest="action", required=True)
    uv = leaf(unit_sub, "verify", help="invert a unit exactly")
    uv.add_argument("--order", type=int, required=True)
    uv.add_argument("--coeffs", required=True)
    uv.set_defaults(handler=_cmd_unit_verify)

    wh = sub.add_parser("wh", help="Whitehead class operations")
    wh_sub = wh.add_subparsers(dest="action", required=True)
    whe = leaf(wh_sub, "eq", help="class equality modulo trivial units")
    whe.add_argument("--order", type=int, required=True)
    whe.add_argument("--x", required=True)
    whe.add_argument("--y", required=True)
    whe.set_defaults(handler=_cmd_wh_eq)

    hom = leaf(sub, "homology", help="homology of the order-two group")
    hom.add_argument("--target", required=True)
    hom.add_argument("--n", type=int, required=True)
    hom.set_defaults(handler=_cmd_homology)

    tate = leaf(sub, "tate", help="Tate homology in any degree")
    tate.add_argument("--target", required=True)
    tate.add_argument("--n", type=int, required=True)
    tate.set_defaults(handler=_cmd_tate)

    fa = sub.add_parser("falg", help="the simplicial-group model")
    fa_sub = fa.add_subparsers(dest="action", required=True)
    fpi = leaf(fa_sub, "pi", help="homotopy group against homology")
    fpi.add_argument("--target", required=True)
    fpi.add_argument("--n", type=int, required=True)
    fpi.set_defaults(handler=_cmd_falg_pi)
    fch = leaf(fa_sub, "check", help="validate a serialized simplex")
    fch.add_argument("--element", required=True,
                     help="JSON with p, target and face_values")
    fch.set_defaults(handler=_cmd_falg_check)

    sc = sub.add_parser("subcomplex", help="subcomplexes of a simplex")
    sc_sub = sc.add_subparsers(dest="action", required=True)
    sce = leaf(sc_sub, "enum", help="enumerate subcomplexes")
    sce.add_argument("--p", type=int, required=True)
    sce.add_argument("--all", action="store_true",
                     help="include non-contractible subcomplexes")
    sce.set_defaults(handler=_cmd_subcomplex_enum)

    tor = leaf(sub, "torsion", help="h-cobordism symbol calculus")
    tor.add_argument("op", choices=["compose", "reverse", "double"])
    tor.add_argument("--d", type=int, required=True)
    tor.add_argument("--order", type=int, required=True)
    tor.add_argument("--u", required=True, help="torsion unit coefficients")
    tor.add_argument("--twist", type=int, default=1)
    tor.add_argument("--u2", default=None)
    tor.add_argument("--twist2", type=int, default=1)
    tor.set_defaults(handler=_cmd_torsion)

    ln = sub.add_parser("lens", help="lens-space computations")
    ln_sub = ln.add_subparsers(dest="action", required=True)
    li = leaf(ln_sub, "inertia", help="inertia torsion classes")
    li.add_argument("--p", type=int, default=7)
    li.add_argument("--k", type=int, default=1)
    li.add_argument("--unit", default=None)
    li.set_defaults(handler=_cmd_lens_inertia)
    lr = leaf(ln_sub, "report-theorem-a",
              help="full cardinality-discrepancy pipeline")
    lr.add_argument("--k", type=int, required=True)
    lr.add_argument("--unit", default=None)
    lr.set_defaults(handler=_cmd_lens_report)

    ka = sub.add_parser("kapp", help="K-theory appendix arithmetic")
    ka_sub = ka.add_subparsers(dest="action", required=True)
    kt = leaf(ka_sub, "tor", help="periodic-resolution homology")
    kt.add_argument("--p", type=int, required=True)
    kt.add_argument("--i", type=int, required=True)
    kt.set_defaults(handler=_cmd_kapp_tor)
    kk = leaf(ka_sub, "k3", help="degree-three divisibility report")
    kk.add_argument("--p", type=int, required=True)
    kk.set_defaults(handler=_cmd_kapp_k3)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        doc = args.handler(args)
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    text = doc.to_json() if args.json else doc.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left early; keep the flush at shutdown quiet too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return doc.exit_code()


if __name__ == "__main__":
    sys.exit(main())
