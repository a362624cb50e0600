"""The base of fastreg's immutable records.

Every record in the package (messages, envelopes, events, keys, cards,
contexts, profiles) is a plain class with `__slots__` and its own
hand-written `__init__`: no code is generated when a module is imported,
and no instance carries a `__dict__`.  An immutable record derives from
`Frozen`; its `__init__` stores each field with `set_field`, and any later
assignment or deletion raises AttributeError.  No record defines
`__eq__`: records compare by identity, and two are compared by value
through their serialized forms (`card_to_text`, `SecurityContext.to_bytes`,
`Key.octets`).
The exception is `channel.Event`, the most numerous record: it is a
`tuple` subclass with read-only properties, built in one `tuple.__new__`
call as the flat tuple (step, entity, name, *values) with its field
names declared once in `channel.EVENT_FIELDS`, and it compares by value
like any tuple.
"""

set_field = object.__setattr__  # how a Frozen record's __init__ stores its fields


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r of a frozen %s" % (name, type(self).__name__))

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r of a frozen %s" % (name, type(self).__name__))
