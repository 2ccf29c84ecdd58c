"""Plain result records: slotted classes with field-wise equality."""


class Record:
    """Base of the package's records.  A subclass names its fields in
    __slots__, in order, and sets them in its __init__.  Two records are
    equal when they are of the same class and their fields are equal;
    fields may be reassigned, so records are not hashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self):
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (k, getattr(self, k)) for k in self.__slots__))
