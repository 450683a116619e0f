"""The one base of ffsched's input values: plain `__slots__` classes, so
import builds them without generating and compiling methods as `dataclass`
does."""


class Frozen:
    """An immutable value whose fields are its class's `_fields`, in order.

    A subclass names its fields in `_fields`, and in `__slots__` those
    fields and any attribute its `__init__` derives from them. `__init__`
    checks the values and stores them through `_set`. Instances equal only
    instances of their own class with equal fields, hash and `repr` by their
    fields, and pickle and copy through `__init__`, as `replace` derives a
    variant: every check runs again, and every derived attribute is computed
    again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values, **derived) -> None:
        """Store `values` as the fields, in order, and `derived` by name."""
        for name, value in (*zip(self._fields, values, strict=True), *derived.items()):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """This value with `changes` to its fields, built by `__init__`."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
