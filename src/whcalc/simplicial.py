"""Faces and subcomplexes of a standard simplex: collapsing and enumeration.

A face is a nonempty bitmask over the vertices 0..p; a subcomplex is a
nonempty downward-closed set of faces.  Contractibility is decided by
elementary collapses with full backtracking, which coincides with actual
contractibility for the vertex counts used here (the exotic
contractible-but-not-collapsible complexes need more than 7 vertices);
the test suite cross-checks every verdict against a homology oracle.
"""

from __future__ import annotations

from functools import lru_cache

from ._value import Frozen

__all__ = [
    "SubComplex",
    "face_from_vertices",
    "vertices_of",
    "face_dim",
    "face_str",
    "face_boundary",
    "is_contractible",
    "enumerate_subcomplexes",
    "enumerate_contractible_subcomplexes",
]


def face_from_vertices(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    if not mask:
        raise ValueError("a face needs at least one vertex")
    return mask


def vertices_of(face):
    return [v for v in range(face.bit_length()) if face >> v & 1]


def face_dim(face):
    return face.bit_count() - 1


def face_str(face):
    return "".join(str(v) for v in vertices_of(face))


def face_from_str(s):
    return face_from_vertices(int(ch) for ch in s)


def subfaces(face):
    """All nonempty subsets of a face's vertex set, the face included."""
    sub = face
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & face
        if sub == 0:
            return


def face_boundary(face, i):
    """The i-th codimension-one face (drop the i-th smallest vertex)."""
    verts = vertices_of(face)
    if not 0 <= i < len(verts):
        raise IndexError("boundary index out of range")
    if len(verts) == 1:
        raise ValueError("a vertex has no boundary faces")
    return face & ~(1 << verts[i])


class SubComplex(Frozen):
    """Downward-closed nonempty set of faces of the p-simplex."""

    _fields = ("p", "faces")

    def __init__(self, p, faces):
        faces = frozenset(faces)
        if not faces:
            raise ValueError("a subcomplex must be nonempty")
        ambient = (1 << (p + 1)) - 1
        for f in faces:
            if f == 0 or f & ~ambient:
                raise ValueError("face outside the ambient simplex")
            for sub in subfaces(f):
                if sub not in faces:
                    raise ValueError("face set is not downward closed")
        self._freeze(p, faces)

    def canonical_key(self):
        return tuple(sorted(self.faces))

    # -- serialization ------------------------------------------------

    def to_dict(self):
        """``{"p", "faces"}`` with each face as its ``face_str``.

        Vertex names are single digits, so a face with a vertex above 9
        would not read back: such a subcomplex is refused.
        """
        if any(f >> 10 for f in self.faces):
            raise ValueError("single-digit vertex names stop at vertex 9")
        return {"p": self.p, "faces": [face_str(f) for f in sorted(self.faces)]}


# -- collapsibility -----------------------------------------------------

def _free_pairs(faces):
    """(face, coface) pairs where the face has exactly one proper coface."""
    pairs = []
    for f in faces:
        cofaces = [g for g in faces if g != f and g & f == f]
        if len(cofaces) == 1:
            pairs.append((f, cofaces[0]))
    return sorted(pairs)


@lru_cache(maxsize=200000)
def _collapses_to_point(faces):
    if len(faces) == 1:
        return True
    for f, g in _free_pairs(faces):
        if _collapses_to_point(faces - {f, g}):
            return True
    return False


def is_contractible(k):
    """Collapsibility with full backtracking (see module docstring)."""
    return _collapses_to_point(k.faces)


# -- enumeration ---------------------------------------------------------

def enumerate_subcomplexes(p):
    """All nonempty subcomplexes of the p-simplex (order ideals), p <= 4."""
    if p > 4:
        raise ValueError("exhaustive enumeration is capped at p = 4")
    if p < 0:
        raise ValueError("subcomplex degree must be nonnegative")
    # in mask order every proper subface is decided before its face
    all_faces = range(1, 1 << (p + 1))
    out = []

    def rec(idx, chosen):
        if idx == len(all_faces):
            if chosen:
                out.append(SubComplex(p, frozenset(chosen)))
            return
        f = all_faces[idx]
        rec(idx + 1, chosen)
        if all(sub in chosen for sub in subfaces(f) if sub != f):
            chosen = set(chosen)
            chosen.add(f)
            rec(idx + 1, chosen)

    rec(0, set())
    out.sort(key=SubComplex.canonical_key)
    return out


def enumerate_contractible_subcomplexes(p):
    """All contractible subcomplexes of the p-simplex, canonically sorted.

    Exhaustive mode only; larger ambient dimensions work lazily from face
    values and never materialize this poset.
    """
    if p > 3:
        raise ValueError("exhaustive contractible enumeration is capped at p = 3")
    return [k for k in enumerate_subcomplexes(p) if is_contractible(k)]


# -- the coface maps ------------------------------------------------------

def coface_vertex(v, i):
    """Vertex map of the coface skipping vertex i."""
    return v if v < i else v + 1


def coface_face(face, i):
    out = 0
    for v in vertices_of(face):
        out |= 1 << coface_vertex(v, i)
    return out

