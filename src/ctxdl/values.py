"""Immutable value types without per-class code generation.

``Record`` is the base of every frozen value class in the package. A
subclass lists its fields in ``__slots__``; names that start with ``_``
are caches, not fields, and start as None. The base gives it a positional
or keyword constructor, frozen attributes, structural ``==`` and ``hash``,
and the ``Name(field=value, ...)`` repr, which ignore caches. Nothing is
generated or compiled when a subclass is defined, so defining one costs
microseconds, where ``@dataclass`` spends about a millisecond per class.
The generic constructor, ``==`` and ``hash`` cost more per call than
generated ones, so a class used on a hot path writes its own ``__init__``
of ``object.__setattr__`` calls (caches included), which is faster.
A listing of many records of one class is built by ``records``, which
fills each slot column by column and makes no Python call per record.

``render`` is the one walk that turns a tree into text: the repr here,
and the printers of concepts, guards and programs. Each node lists its
text as strings and (child, parts) pairs, which wait on an explicit
stack, so a long chain costs no Python recursion.

``Node`` is a hash-consed ``Record``: building a node whose class and
fields equal those of a live node returns that node. The unique table is
keyed on the class and the fields, whose nodes are themselves unique, and
holds its nodes weakly, so a node lives exactly as long as something else
refers to it. Equality is identity, and so is the hash: ``object``'s, from
the address, so hashing never walks the tree and runs no Python code.
A set of nodes therefore iterates in an order that follows addresses,
which changes with the nodes made before and from run to run; no output
may follow it, and the tests check that under scrambled node hashes.
This is the unique table of Horrocks and Patel-Schneider (J. Logic
Comput. 1999) and of FaCT++.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import attrgetter
from weakref import ref

# Deletes a key whose value is a dead weak reference, in one step: the
# helper WeakValueDictionary uses.
from _weakref import _remove_dead_weakref

_set = object.__setattr__


def _no_fields(obj) -> tuple:
    return ()


class Record:
    """Frozen value with the fields named in ``__slots__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _caches: tuple[str, ...] = ()  # the private slots, which start as None
    _values = staticmethod(_no_fields)  # the field values: a tuple, or the value of a lone field

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        own = (own,) if isinstance(own, str) else tuple(own)
        cls._fields = cls._fields + tuple(name for name in own if not name.startswith("_"))
        cls._caches = cls._caches + tuple(n for n in own if n.startswith("_") and not n.startswith("__"))
        cls._values = attrgetter(*cls._fields) if cls._fields else _no_fields

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            values = _bind(type(self), values, named)
        for name, value in zip(fields, values):
            _set(self, name, value)
        for name in self._caches:
            _set(self, name, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        return render(self, _repr_parts)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def render(root, parts) -> str:
    """Join the text of *root*, the one tree-to-text walk of the package.

    ``parts(node)`` lists a node's text as strings and ``(child, parts)``
    pairs; the pairs wait on an explicit stack, so a long chain costs no
    Python recursion.
    """
    out: list[str] = []
    stack: list = [(root, parts)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            node, node_parts = item
            stack.extend(reversed(node_parts(node)))
    return "".join(out)


def _repr_parts(record: Record) -> list:
    """``Name(field=value, ...)``, with each record among the values as a pair."""
    parts: list = [f"{type(record).__qualname__}("]
    for i, name in enumerate(record._fields):
        value = getattr(record, name)
        parts.append(f", {name}=" if i else f"{name}=")
        parts.append((value, _repr_parts) if type(value).__repr__ is Record.__repr__ else repr(value))
    parts.append(")")
    return parts


def _bind(cls: type, values: tuple, named: dict) -> tuple:
    """The field values of ``cls(*values, **named)``, in field order."""
    fields = cls._fields
    if len(values) > len(fields):
        raise TypeError(f"{cls.__name__} takes {len(fields)} fields but {len(values)} were given")
    bound = dict(zip(fields, values))
    for name, value in named.items():
        if name not in fields:
            raise TypeError(f"{cls.__name__} has no field {name!r}")
        if name in bound:
            raise TypeError(f"{cls.__name__} got field {name!r} twice")
        bound[name] = value
    missing = [name for name in fields if name not in bound]
    if missing:
        raise TypeError(f"{cls.__name__} is missing field(s) {', '.join(map(repr, missing))}")
    return tuple(bound[name] for name in fields)


class _Entry(ref):
    """A unique-table entry: a weak reference that knows its key."""

    __slots__ = ("key",)


# key (class, *fields) -> entry of the live node with those fields. Each
# write is one atomic dict operation, so threads need no lock to never
# make twin nodes: setdefault adds an entry only where there is none, and
# _remove_dead_weakref drops one only while its node is dead.
_table: dict[tuple, _Entry] = {}


def _forget(entry: _Entry, table=_table, remove=_remove_dead_weakref) -> None:
    """Drop the entry of a node that died, unless a newer node holds the key."""
    remove(table, entry.key)


class Node(Record):
    """Hash-consed ``Record``: equal fields give the identical node.

    Fields are given by position; every user of a node shares its caches.
    Equality and the hash are identity, so set order follows addresses.
    """

    __slots__ = ("__weakref__",)
    __init__ = object.__init__  # __new__ sets the fields, once
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, *values):
        # Fields by position only: a ** parameter would cost every call a dict.
        key = (cls, *values)
        entry = _table.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        if len(values) != len(cls._fields):
            _bind(cls, values, {})  # raises the TypeError
        node = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            _set(node, name, value)
        for name in cls._caches:
            _set(node, name, None)
        entry = _Entry(node, _forget)
        entry.key = key
        while True:
            current = _table.setdefault(key, entry)
            if current is entry:
                return node
            twin = current()
            if twin is not None:
                return twin  # another thread made it first
            _remove_dead_weakref(_table, key)  # a node that died, not yet forgotten

    @classmethod
    def existing(cls, *values):
        """The live node ``cls(*values)`` if there is one, else None; makes no node."""
        entry = _table.get((cls, *values))
        return None if entry is None else entry()


def records(cls: type, count: int, *columns) -> list:
    """*count* records of *cls*; record i takes value i of each column, one
    column per field in field order, and its caches start as None.

    Each record equals ``cls(*values)``, but no ``__init__`` runs, so one
    that does more than set the fields and caches is skipped: the objects
    come from ``object.__new__`` and each slot's descriptor fills one
    column in a loop that stays in C. A ``Node`` class raises TypeError,
    since a node must come from its unique table. A column shorter than
    *count* raises ValueError.
    """
    if issubclass(cls, Node):
        raise TypeError(f"{cls.__name__} is a Node: build it through its unique table")
    if len(columns) != len(cls._fields):
        raise TypeError(f"{cls.__name__} takes {len(cls._fields)} columns but {len(columns)} were given")
    out = list(map(object.__new__, repeat(cls, count)))
    for name, column in zip(cls._fields, columns):
        deque(map(getattr(cls, name).__set__, out, column), maxlen=0)
        if out and not hasattr(out[-1], name):
            raise ValueError(f"column {name!r} has fewer than {count} values")
    for name in cls._caches:
        deque(map(getattr(cls, name).__set__, out, repeat(None)), maxlen=0)
    return out
