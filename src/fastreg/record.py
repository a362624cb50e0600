"""The base of fastreg's immutable records.

Every record in the package (messages, envelopes, events, keys, cards,
contexts, profiles) is a plain class with `__slots__` and its own
hand-written `__init__`: no code is generated when a module is imported,
and no instance carries a `__dict__`.  An immutable record derives from
`Frozen`; its `__init__` stores each field with `set_field`, and any later
assignment or deletion raises AttributeError.  Records compare by
identity; the few that are compared by value set `__eq__ = fields_equal`.
The exception is `channel.Event`, the most numerous record: it is a
`tuple` subclass with read-only properties, built in one `tuple.__new__`
call, and it compares by value like any tuple.
"""

set_field = object.__setattr__  # how a Frozen record's __init__ stores its fields


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r of a frozen %s" % (name, type(self).__name__))

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r of a frozen %s" % (name, type(self).__name__))


def fields_equal(self, other) -> bool:
    """Value equality: the same class and equal fields, in `__slots__` order."""
    if type(other) is not type(self):
        return NotImplemented
    return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)
