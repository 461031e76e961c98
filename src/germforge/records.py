"""Base classes of the package's plain record types.

A record class names its fields in ``_fields``, in constructor order, and
assigns them in its own ``__init__``.  ``Record`` gives it equality (same
class, equal fields) and a ``Name(field=value, ...)`` repr; ``Frozen`` also
refuses assignment, hashes the field tuple and copies and pickles through
the constructor, so a frozen record's ``__init__`` sets its fields with
``_set``.  The jets are frozen records too; ``Jet2`` keeps its own hash (a
dict field has none) and repr.  (``dataclasses`` would generate and compile
these methods for each class at import, and import ``inspect``: start-up
time that every CLI process pays.)
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild a frozen record through its constructor:
        # their default of setting each field is refused
        return (self.__class__, self._values())
