"""The immutable record base of psicalc's report and parameter classes.

A subclass lists its fields, in constructor order, as `__slots__`, and
the defaults of trailing fields in `_defaults`.  An instance takes its
fields positionally or by keyword, refuses assignment and deletion,
compares equal only to an instance of the same class with equal fields
(never to a tuple), hashes as its field tuple and prints as
`Name(field=value, ...)`, with the digits of int and Fraction values
written in full past the interpreter's int-to-str limit.  No code is
generated per class, so defining one costs next to nothing at import
time.
"""

from fractions import Fraction

from .poly import _digits


def _field_repr(v) -> str:
    """repr(v), the digits of an int or Fraction, also in a tuple, through
    `poly._digits`, as `Polynomial.__repr__` writes its coefficients."""
    if type(v) is int:
        return _digits(v)
    if type(v) is Fraction:
        return f"Fraction({_digits(v.numerator)}, {_digits(v.denominator)})"
    if type(v) is tuple:
        items = ", ".join(map(_field_repr, v))
        return f"({items},)" if len(v) == 1 else f"({items})"
    return repr(v)


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__  # `case HahnParams(q, h):` matches by position
        # the slot descriptors' own setters skip the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self.__slots__):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """All field values in order from a partial or keyword call."""
        names = self.__slots__
        rest = names[len(args):]
        values = {**self._defaults, **kwargs}
        try:
            tail = tuple([values[name] for name in rest])
        except KeyError as exc:
            raise TypeError(f"{type(self).__name__}() missing argument {exc}") from None
        if len(args) > len(names) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{type(self).__name__}() takes the arguments {names}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        return args + tail

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
