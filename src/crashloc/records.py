"""Building frozen, slotted records without their ``__init__``.

A frozen dataclass's ``__init__`` sets each field through
``object.__setattr__``, and then runs ``__post_init__``. The loaders build
many small records whose values they have already checked, so they use
``builder(cls)`` instead: a function that makes the record and sets each
slot directly.
"""
from __future__ import annotations

from dataclasses import fields


def builder(cls):
    """A function ``build(*values)`` that returns a ``cls`` holding ``values``,
    one per field (``init=False`` fields too), in declaration order.

    ``cls`` must be a frozen, slotted dataclass. Neither its ``__init__`` nor
    its ``__post_init__`` runs, so the caller must have made their checks
    and computed any derived field itself. The body is written out one slot
    per line, as ``dataclasses`` writes ``__init__``: a loop over the slots
    costs as much as the ``__init__`` it replaces.
    """
    if not (cls.__dataclass_params__.frozen and "__slots__" in vars(cls)):
        raise TypeError(f"{cls.__name__} is not a frozen, slotted dataclass")
    slots = [vars(cls)[f.name] for f in fields(cls)]
    params = ", ".join(f"v{i}" for i in range(len(slots)))
    body = "".join(f"    set{i}(record, v{i})\n" for i in range(len(slots)))
    namespace = {f"set{i}": slot.__set__ for i, slot in enumerate(slots)}
    namespace.update(new=object.__new__, cls=cls)
    exec(f"def build({params}):\n    record = new(cls)\n{body}    return record\n", namespace)
    build = namespace["build"]
    build.__qualname__ = build.__name__ = f"build_{cls.__name__}"
    return build
