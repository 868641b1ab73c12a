"""The three workloads: their seeded inputs, the operations a worker
runs, and the checks the runner applies to each operation's output.

Every workload is a closed loop: one check or command at a time, no
threads, one child process at a time.  The seed only reorders work and
picks the seeded CLI units, so the cost of a repetition does not depend
on it.

- ``homotopy-sweep``: ``moore_homotopy(a, n) == homology_c2(a, n)`` for
  the eight criterion-03 targets at n = 0..2, plus Z/2+Z/2 (trivial
  action) at n = 3, the largest constraint system (672 x 796).  The
  other n = 3 checks are dropped: on the pure kernel they would add
  about 15 s to a 15 s repetition, leaving one repetition per run.
  Dense SNF is over 90% of the time; a faster kernel shows here.
- ``functor-checks``: every generalized duality on all 6^4 elements of
  F^alg_2(Z/6), ``check_square`` on every element of F^alg_2 for Z/2
  (trivial) and Z/4 (sign), and ``psi_is_bijective`` for the eight
  targets at n <= 2.  Element-level work that rebuilds the
  relation ``Lattice`` on every reduce and almost never calls SNF (psi
  at n = 3 is left out: it is 2.3 s of SNF, which belongs to the
  sweep).  A ``Lattice`` cache shows here; a kernel change should not.
- ``cli-mix``: every README command, ``lens report-theorem-a --k 1..3``,
  ``subcomplex enum --p 3 --all``, ``falg pi`` at n <= 2 for Z/2
  (trivial), Z/3 (sign) and Z/2+Z/2 (sign), ``falg check`` on a
  degree-2 element, and seeded
  ``unit verify`` / ``wh eq`` on products of the standard unit with
  trivial units, each as a fresh interpreter.  Start-up, import, small
  dense SNF and JSON reports; a kernel that slows small input shows here.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

WORKLOADS = ("homotopy-sweep", "functor-checks", "cli-mix")
SIZES = ("full", "smoke")

TARGETS = {
    "z2-trivial": ([2], 1), "z2-sign": ([2], -1),
    "z3-trivial": ([3], 1), "z3-sign": ([3], -1),
    "z4-trivial": ([4], 1), "z4-sign": ([4], -1),
    "z2xz2-trivial": ([2, 2], 1), "z2xz2-sign": ([2, 2], -1),
    "z6-trivial": ([6], 1),
}
SWEEP = [name for name in TARGETS if not name.startswith("z6")]

HOMOTOPY = {
    "full": [(t, n) for t in SWEEP for n in range(3)] + [("z2xz2-trivial", 3)],
    "smoke": [(t, n) for t in SWEEP for n in range(2)],
}
FUNCTOR = {
    "full": {"duality": ["z6-trivial"],
             "square": ["z2-trivial", "z4-sign"],
             "psi": [(t, n) for t in SWEEP for n in range(3)]},
    "smoke": {"duality": ["z2-trivial"], "square": ["z2-sign"],
              "psi": [(t, n) for t in SWEEP[:2] for n in range(2)]},
}

# 2 + 2t - t^3 - t^4 - t^5, the standard unit of Z[C_7].
UNIT = (2, 2, 0, -1, -1, -1, 0)
DEGREE2_ELEMENT = json.dumps({
    "p": 2, "target": "z4-sign",
    "face_values": {"0": [1], "1": [1], "01": [3], "2": [1], "02": [1],
                    "12": [1], "012": [0], "3": [1], "03": [3], "13": [1],
                    "013": [1], "23": [1], "023": [2], "123": [1]}},
    separators=(",", ":"))

README_COMMANDS = [
    ["unit", "verify", "--order", "7", "--coeffs", "2,2,0,-1,-1,-1,0"],
    ["wh", "eq", "--order", "7", "--x", "2,2,0,-1,-1,-1,0",
     "--y=-1,0,2,2,0,-1,-1"],
    ["homology", "--target", "z2xz2-trivial", "--n", "1"],
    ["tate", "--target", "z-trivial", "--n", "-2"],
    ["falg", "pi", "--target", "z4-sign", "--n", "2"],
    ["falg", "check", "--element",
     '{"p":0,"target":"z2-trivial","face_values":{"0":[1],"1":[1]}}'],
    ["subcomplex", "enum", "--p", "2"],
    ["torsion", "double", "--d", "11", "--order", "7",
     "--u", "2,2,0,-1,-1,-1,0", "--twist", "2"],
    ["lens", "inertia", "--p", "5"],
    ["lens", "report-theorem-a", "--k", "1"],
    ["kapp", "tor", "--p", "7", "--i", "4"],
    ["kapp", "k3", "--p", "7"],
]


def fixed_commands(size):
    """CLI commands whose ``--json`` stdout digest is recorded."""
    if size == "smoke":
        cmds = [README_COMMANDS[0], README_COMMANDS[2], README_COMMANDS[6],
                ["falg", "pi", "--target", "z2-trivial", "--n", "0"]]
    else:
        cmds = list(README_COMMANDS)
        cmds += [["lens", "report-theorem-a", "--k", str(k)] for k in (2, 3)]
        cmds.append(["subcomplex", "enum", "--p", "3", "--all"])
        cmds += [["falg", "pi", "--target", t, "--n", str(n)]
                 for t in ("z2-trivial", "z3-sign", "z2xz2-sign") for n in range(3)]
        cmds.append(["falg", "check", "--element", DEGREE2_ELEMENT])
    return [argv + ["--json"] for argv in cmds]


def command_key(argv):
    return " ".join(argv)


# -- group-ring arithmetic for the seeded units (independent of whcalc) --

def convolve(a, b):
    """Product in Z[C_n] by plain cyclic convolution."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % n] += x * y
    return out


def _seeded_unit(rng):
    """(k, +-t^j * u^k) for a seeded power k and trivial unit +-t^j."""
    k = rng.randint(1, 4)
    x = [0] * 7
    x[rng.randrange(7)] = rng.choice((1, -1))
    for _ in range(k):
        x = convolve(x, UNIT)
    return k, x


def _coeff_arg(flag, coeffs):
    return f"{flag}={','.join(map(str, coeffs))}"


def cli_commands(seed, size):
    """Seeded command list: dicts with ``argv`` and what to check."""
    rng = random.Random(seed)
    cmds = [{"argv": argv, "check": "digest"} for argv in fixed_commands(size)]
    pairs = 1 if size == "smoke" else 4
    for _ in range(pairs):
        _, x = _seeded_unit(rng)
        cmds.append({"argv": ["unit", "verify", "--order", "7",
                               _coeff_arg("--coeffs", x), "--json"],
                     "check": "unit", "x": x})
        kx, x = _seeded_unit(rng)
        ky, y = _seeded_unit(rng)
        if rng.random() < 0.5:
            ky, y = kx, convolve(x, [0, 0, 0, 0, 0, 0, -1])  # y = -t^6 x
        cmds.append({"argv": ["wh", "eq", "--order", "7", _coeff_arg("--x", x),
                               _coeff_arg("--y", y), "--json"],
                     "check": "wh", "equal": kx == ky})
    rng.shuffle(cmds)
    return cmds


def check_command(cmd, returncode, stdout, expected):
    """Whether one CLI command's exit code and ``--json`` stdout are right."""
    if returncode != 0:
        return False
    if cmd["check"] == "digest":
        want = expected["cli"].get(command_key(cmd["argv"]))
        return want is not None and want == digest_bytes(stdout)
    try:
        stages = {s["name"]: s for s in json.loads(stdout)["stages"]}
        if cmd["check"] == "unit":
            stage = stages["unit-inverse"]
            inverse = [int(c) for c in stage["witness"]["inverse"]["coeffs"]]
            return stage["status"] == "verified" and \
                convolve(cmd["x"], inverse) == [1, 0, 0, 0, 0, 0, 0]
        return stages["class-equality"]["witness"]["equal"] is cmd["equal"]
    except (ValueError, KeyError, TypeError):
        return False


def digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def digest_value(value):
    return digest_bytes(json.dumps(value, sort_keys=True).encode())


# -- in-process workloads (run inside a worker) --------------------------

def target(name):
    from whcalc.abelian import InvolutiveAbelianGroup
    factors, sign = TARGETS[name]
    return InvolutiveAbelianGroup.from_factors(factors, sign)


def homotopy_ops(seed, size):
    """(label, thunk) pairs; each thunk returns both paths' factors."""
    from whcalc import abelian, falg

    plan = list(HOMOTOPY[size])
    random.Random(seed).shuffle(plan)
    targets = {t: target(t) for t, _ in plan}

    def check(a, n):
        return [list(falg.moore_homotopy(a, n).invariant_factors),
                list(abelian.homology_c2(a, n).invariant_factors)]

    return [(f"pi {t} {n}", lambda a=targets[t], n=n: check(a, n))
            for t, n in plan]


def duality_checks(tf):
    """[held, attempted] over every generalized duality of one functor."""
    from whcalc import falg
    from whcalc.simplicial import face_dim
    held = attempted = 0
    for sigma in range(1, 1 << (tf.ambient + 1)):
        d = face_dim(sigma)
        for r in range(1, d + 1):
            for idx in combinations(range(d + 1), r):
                attempted += 1
                held += bool(falg.generalized_duality_holds(tf, sigma, idx))
    return [held, attempted]


def functor_ops(seed, size):
    """Iterator of (label, thunk) pairs; the inputs are built up front."""
    rng = random.Random(seed)
    plan = FUNCTOR[size]
    items = [("duality", t) for t in plan["duality"]] + \
        [("square", t) for t in plan["square"]] + \
        [("psi", tn) for tn in plan["psi"]]
    rng.shuffle(items)
    targets = {t: target(t) for t in TARGETS}
    return _functor_stream(rng, items, targets)


def _functor_stream(rng, items, targets):
    """The element checks of a group are yielded only after the caller
    ran the group's enumeration thunk, whose elements they need."""
    from whcalc import falg

    for kind, arg in items:
        if kind == "psi":
            t, n = arg
            yield f"psi {t} {n}", \
                lambda a=targets[t], n=n: bool(falg.psi_is_bijective(a, n))
            continue
        found = []

        def enumerate_group(a=targets[arg], found=found):
            found.extend(falg.falg_group(a, 2).elements())
            return len(found)

        yield f"elements {arg}", enumerate_group
        rng.shuffle(found)
        for el in found:
            if kind == "duality":
                yield f"duality {arg}", lambda tf=el.functor: duality_checks(tf)
            else:
                yield f"square {arg}", \
                    lambda tf=el.functor: bool(falg.check_square(tf))


def worker_ops(workload, seed, size):
    if workload == "homotopy-sweep":
        return homotopy_ops(seed, size)
    return functor_ops(seed, size)


def planned_ops(workload, size, expected):
    """Operations a complete repetition runs; missing ones count as failed."""
    if workload == "homotopy-sweep":
        return len(HOMOTOPY[size])
    if workload == "functor-checks":
        plan = FUNCTOR[size]
        groups = plan["duality"] + plan["square"]
        return len(plan["psi"]) + sum(1 + expected["functor"]["elements"][t]
                                      for t in groups)
    return len(cli_commands(0, size))


def check_op(label, output, expected):
    """Whether one in-process operation's output matches the record."""
    kind, _, rest = label.partition(" ")
    if kind == "pi":
        t, n = rest.split()
        want = expected["homotopy"][t][n]
        return output == [want, want]
    if kind == "elements":
        return output == expected["functor"]["elements"][rest]
    if kind == "duality":
        per_element = expected["functor"]["duality_checks"][rest] \
            // expected["functor"]["elements"][rest]
        return output == [per_element, per_element]
    return output is True  # square, psi
