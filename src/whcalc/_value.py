"""Value classes compared by their fields, written once for every class.

Every whcalc command runs in a fresh interpreter, so every command pays
for what its modules import.  The standard library's data class
generator would give these semantics too, but importing it pulls in
``inspect``, ``dis``, ``ast`` and ``tokenize``, and each generated class
then compiles its methods with ``exec``: together about a third of the
time ``import whcalc.cli`` adds to a bare interpreter.  The two bases
here hold those methods instead.

A subclass names its fields, in constructor order, in ``_fields`` and
writes its own ``__init__``, which keeps the signature, the argument
checks and the normalisation together.
"""

from __future__ import annotations

_setattr = object.__setattr__


class Record:
    """Mutable value: equal to an object of the same class whose fields
    are equal, and unhashable."""

    _fields = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({args})"


class Frozen(Record):
    """Immutable value, hashed by its fields.

    ``__init__`` stores the normalised fields with ``self._freeze(...)``;
    any later assignment or deletion raises ``AttributeError``.  The
    field tuple is kept as ``_key``, so equality and hashing, which the
    lru caches keyed on these objects run on every call, build no tuple.
    The hash is that of the field tuple, so sets of values iterate in
    the same order as before these classes were written by hand.
    """

    def _freeze(self, *values):
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)
        _setattr(self, "_key", values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
