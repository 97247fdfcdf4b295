"""The shared piece of the package's validated records.

A validated record is a ``typing.NamedTuple`` that declares the fields and
their defaults, plus a subclass whose ``__new__`` builds the tuple and then
checks it.  The subclass also derives from :class:`Checked`, listed first.
"""

__all__ = ["Checked"]


class Checked:
    """Make ``_replace`` check the fields as the constructor does.

    A NamedTuple's ``_replace`` builds its copy through ``_make``, which
    calls ``tuple.__new__`` and so would skip the subclass's checks.
    """

    __slots__ = ()

    _make = classmethod(lambda cls, it: cls(*it))
