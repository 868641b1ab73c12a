"""Subcomplexes, collapsibility, enumeration, oracle agreement."""

from __future__ import annotations

import random

import pytest

from whcalc.simplicial import (SubComplex,
                               enumerate_contractible_subcomplexes,
                               enumerate_subcomplexes, face_from_vertices,
                               is_contractible)

from _oracles import (EmptyIntersectionError, boundary, boundary_face,
                      closure, codegeneracy_image, euler_characteristic,
                      full_simplex, horn, intersection,
                      is_acyclic_and_connected, is_connected, maximal_faces,
                      single_face, subcomplex_from_dict, union)


def test_standard_complexes():
    assert full_simplex(1).faces == {0b01, 0b10, 0b11}
    assert boundary_face(2, 1).faces == {0b001, 0b100, 0b101}
    assert horn(2, 0) == union(single_face(2, 0b011), single_face(2, 0b101))
    with pytest.raises(IndexError):
        horn(2, 3)
    with pytest.raises(IndexError):
        boundary_face(2, -1)


def test_downward_closure_enforced():
    with pytest.raises(ValueError):
        SubComplex(2, frozenset({0b011}))
    closure(2, [0b011])  # fine


def test_lattice_ops():
    d1, d2 = boundary_face(2, 1), boundary_face(2, 2)
    assert union(d1, d2) == horn(2, 0)
    assert intersection(d1, d2) == single_face(2, 0b001)
    assert horn(2, 0).faces <= full_simplex(2).faces
    with pytest.raises(EmptyIntersectionError):
        intersection(single_face(2, 0b001), single_face(2, 0b010))
    with pytest.raises(ValueError):
        union(full_simplex(1), full_simplex(2))


def test_closure_under_lattice_ops_randomized():
    # the SubComplex constructor rejects non-closed face sets, so simply
    # forming unions/intersections asserts closure is preserved
    rng = random.Random(9)
    pool = enumerate_subcomplexes(3)
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        u = union(a, b)
        assert a.faces <= u.faces and b.faces <= u.faces
        try:
            i = intersection(a, b)
            assert i.faces <= a.faces and i.faces <= b.faces
        except EmptyIntersectionError:
            assert not (a.faces & b.faces)


def test_contractibility_examples():
    assert is_contractible(full_simplex(3))
    assert not is_contractible(boundary(2))
    two_points = SubComplex(1, frozenset({0b01, 0b10}))
    assert not is_contractible(two_points)
    assert is_contractible(horn(3, 2))
    assert not is_contractible(boundary(3))


def test_enumeration_counts():
    assert len(enumerate_contractible_subcomplexes(0)) == 1
    assert len(enumerate_contractible_subcomplexes(1)) == 3
    assert len(enumerate_contractible_subcomplexes(2)) == 10
    with pytest.raises(ValueError):
        enumerate_contractible_subcomplexes(4)
    # a negative degree is refused, not answered with no subcomplexes
    for enumerate_ in (enumerate_subcomplexes,
                       enumerate_contractible_subcomplexes):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_(-1)


def test_enumeration_is_sorted_and_euler_one():
    for p in range(3):
        ks = enumerate_contractible_subcomplexes(p)
        keys = [k.canonical_key() for k in ks]
        assert keys == sorted(keys)
        assert all(euler_characteristic(k.faces) == 1 for k in ks)


def test_oracle_agreement_delta3_exhaustive():
    for k in enumerate_subcomplexes(3):
        assert is_contractible(k) == is_acyclic_and_connected(k), str(k)


def test_oracle_agreement_five_vertices():
    # every subcomplex on at most 5 vertices: the ambient 4-simplex
    disagreements = 0
    for k in enumerate_subcomplexes(4):
        if is_contractible(k) != is_acyclic_and_connected(k):
            disagreements += 1
    assert disagreements == 0


def test_codegeneracy_closure_low_ambient():
    # the enumerated contractible poset is closed under codegeneracy
    # images in the range the functor pullbacks use (ambient <= 2)
    for p in (1, 2):
        allowed = {k.canonical_key()
                   for k in enumerate_contractible_subcomplexes(p - 1)}
        for k in enumerate_contractible_subcomplexes(p):
            for i in range(p):
                img = codegeneracy_image(k, i)
                assert img.canonical_key() in allowed


def test_codegeneracy_sends_faces_to_faces():
    # the corrected degeneracy only ever consumes face values, and the
    # image of a face closure is again a face closure at every ambient
    for p in (1, 2, 3):
        top = (1 << (p + 1)) - 1
        for face in range(1, top + 1):
            for i in range(p):
                img = codegeneracy_image(single_face(p, face), i)
                assert len(maximal_faces(img.faces)) == 1


def test_euler_characteristic_and_connectivity():
    assert euler_characteristic(boundary(2).faces) == 0
    assert euler_characteristic(full_simplex(2).faces) == 1
    assert is_connected(boundary(3).faces)
    assert not is_connected({0b001, 0b010})


def test_serialization_round_trip():
    k = horn(2, 0)
    data = k.to_dict()
    assert data == {"p": 2, "faces": ["0", "1", "01", "2", "02"]}
    assert subcomplex_from_dict(data) == k


def test_serialization_refuses_vertices_past_nine():
    # face names concatenate single-digit vertices: vertex 10 would be
    # written "10", which reads back as the edge 01
    with pytest.raises(ValueError, match="vertex 9"):
        closure(10, [1 << 10 | 1]).to_dict()
    top = full_simplex(9)
    data = top.to_dict()
    assert data["faces"][-1] == "0123456789"
    assert subcomplex_from_dict(data) == top


def test_face_helpers():
    assert face_from_vertices([0, 2]) == 0b101
    with pytest.raises(ValueError):
        face_from_vertices([])
