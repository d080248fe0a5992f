"""Component spec strings: ``name:key=value,key=value``.

A *spec* is the single-string form of "component name plus constructor
arguments" used everywhere a component must be described without Python
code: CLI flags (``repro run --sampler bernoulli:rate=0.01``), config
files, saved experiment descriptions and the documentation.  This module
holds the two halves of the syntax:

* :func:`parse_spec` — spec string to ``(name, kwargs)``;
* :func:`format_spec` — ``(name, kwargs)`` back to the canonical string.

The two functions are exact inverses for the value types a spec can
express (numbers, booleans, ``None``, strings, tuples and lists), so a
spec round-trips without loss:

>>> parse_spec(format_spec("bernoulli", {"rate": 0.01}))
('bernoulli', {'rate': 0.01})
>>> format_spec(*parse_spec("periodic:period=100,phase=3"))
'periodic:period=100,phase=3'

Samplers echo their canonical spec in their ``spec`` attribute, so the
labels printed by ``repro run`` can be pasted straight back into a
``--sampler`` flag (see :mod:`repro.registry`).
"""

from __future__ import annotations

import ast
import functools


def _parse_value(text: str) -> object:
    """Parse a spec value: Python literal when possible, else the raw string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _split_arguments(text: str) -> list[str]:
    """Split on top-level commas, so bracketed and quoted values survive.

    Commas inside brackets (tuple/list values) or inside single/double
    quotes (strings emitted by :func:`format_spec`) do not split.  A
    quote only opens a quoted region at the *start* of a value — right
    after ``=``, ``,`` or an opening bracket — so an apostrophe inside a
    bare word (``label=don't``) is just a character, as it was before
    quoting support existed.  Backslash escapes inside quotes are
    skipped, matching the reprs :func:`format_spec` emits.
    """
    items: list[str] = []
    depth = 0
    quote: str | None = None
    previous = "="  # Sentinel: a quote at position 0 starts a value.
    start = 0
    position = 0
    while position < len(text):
        char = text[position]
        if quote is not None:
            if char == "\\":
                position += 2
                continue
            if char == quote:
                quote = None
                previous = char
        elif char in "'\"" and previous in "=,([{":
            quote = char
        else:
            if char in "([{":
                depth += 1
            elif char in ")]}":
                depth -= 1
            elif char == "," and depth == 0:
                items.append(text[start:position])
                start = position + 1
            if not char.isspace():
                previous = char
        position += 1
    items.append(text[start:])
    return items


def parse_spec(spec: str) -> tuple[str, dict[str, object]]:
    """Split a ``name:key=value,key=value`` spec into name and kwargs.

    Values are parsed as Python literals when possible (numbers, bools,
    tuples) and kept as strings otherwise; commas inside brackets do not
    split arguments.

    Parameters
    ----------
    spec:
        The spec string; the part before the first ``:`` is the
        component name, the rest is a comma-separated argument list.

    Returns
    -------
    tuple[str, dict]
        The component name and the parsed keyword arguments.

    >>> parse_spec("periodic:rate=0.1,phase=3")
    ('periodic', {'rate': 0.1, 'phase': 3})
    >>> parse_spec("custom:rates=(0.1,0.5)")
    ('custom', {'rates': (0.1, 0.5)})
    >>> parse_spec("five-tuple")
    ('five-tuple', {})
    """
    name, _, arg_text = spec.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"component spec {spec!r} has no name")
    return name, parse_kwargs(arg_text)


def parse_kwargs(text: str) -> dict[str, object]:
    """Parse a bare ``key=value,key=value`` argument list (a nameless spec).

    The argument half of :func:`parse_spec`, exposed for flags that
    carry options without a component name (e.g. ``repro run --monitor
    max_flows=4096``).  Values follow the same literal-parsing rules.

    >>> parse_kwargs("max_flows=4096,mode=strict")
    {'max_flows': 4096, 'mode': 'strict'}
    >>> parse_kwargs("")
    {}
    """
    kwargs: dict[str, object] = {}
    if text.strip():
        for item in _split_arguments(text):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise ValueError(
                    f"malformed argument {item!r} in {text!r}; expected key=value"
                )
            kwargs[key.strip()] = _parse_value(value.strip())
    return kwargs


def _format_value(value: object) -> str:
    """Render one argument value so that :func:`_parse_value` recovers it.

    ``repr`` is used for everything except plain strings, because the
    repr of a Python number is its shortest exact form (``repr(0.01)``
    is ``'0.01'`` and ``float('0.01') == 0.01`` exactly).  Strings are
    emitted bare when they survive a parse round-trip unchanged, and
    repr-quoted otherwise.
    """
    if isinstance(value, str):
        rendered = value
        needs_quoting = (
            any(c in value for c in ",([{)]}'\"")
            or value != value.strip()  # parse_spec strips bare values
            or _parse_value(value) != value
        )
        if needs_quoting:
            rendered = repr(value)
        return rendered
    return repr(value)


def format_spec(name: str, kwargs: dict[str, object] | None = None) -> str:
    """Render ``(name, kwargs)`` as a canonical spec string.

    The inverse of :func:`parse_spec`: for any kwargs made of literals,
    ``parse_spec(format_spec(name, kwargs)) == (name, kwargs)`` holds
    exactly (floats use their shortest round-trip repr).

    Parameters
    ----------
    name:
        Component name (must be non-empty and contain no ``:``).
    kwargs:
        Constructor arguments to encode, in the order given.

    Returns
    -------
    str
        The canonical ``name:key=value,...`` string (just ``name`` when
        there are no arguments).

    >>> format_spec("bernoulli", {"rate": 0.01})
    'bernoulli:rate=0.01'
    >>> format_spec("five-tuple")
    'five-tuple'
    >>> format_spec("custom", {"rates": (0.1, 0.5), "mode": "fast"})
    'custom:rates=(0.1, 0.5),mode=fast'
    """
    if not name or ":" in name:
        raise ValueError(f"invalid component name {name!r}")
    if not kwargs:
        return name
    rendered = ",".join(f"{key}={_format_value(value)}" for key, value in kwargs.items())
    return f"{name}:{rendered}"


def _canonical_value(value: object) -> object:
    """Collapse numerically equal spellings of one spec value.

    Integral floats become ints (``120.0`` -> ``120``), recursively
    through tuples and lists, so ``duration=120`` and ``duration=120.0``
    describe the same component *and* render the same canonical string.
    The int form is the safe direction: every numeric constructor
    argument in the library accepts an int where a float is expected,
    while the reverse (``flows=32.0`` for an array length) would not
    hold.  Bools are left alone (``True`` is not ``1.0``'s spelling).
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (tuple, list)):
        return type(value)(_canonical_value(item) for item in value)
    return value


@functools.lru_cache(maxsize=4096)
def canonical_spec(spec: str) -> str:
    """Normalise a spec string into its canonical, order-independent form.

    Parses the spec and re-renders it with the keyword arguments sorted
    by name and numerically equal literal spellings collapsed
    (:func:`_canonical_value`), so two specs that differ only in
    argument order, redundant whitespace, or int-vs-float spelling map
    to the same string.  This is the normalisation the experiment store
    hashes (:func:`repro.store.store_key`): cache keys must not depend
    on how a config file or CLI flag happened to spell the arguments.

    The result is memoised (a bounded LRU cache): every store lookup
    re-canonicalises its spec, and the cells of a sweep grid share
    few distinct component strings.

    >>> canonical_spec("periodic:phase=3,period=100")
    'periodic:period=100,phase=3'
    >>> canonical_spec("periodic:period=100,phase=3")
    'periodic:period=100,phase=3'
    >>> canonical_spec("sprint:duration=120.0,scale=0.002")
    'sprint:duration=120,scale=0.002'
    >>> canonical_spec("five-tuple")
    'five-tuple'
    """
    name, kwargs = parse_spec(spec)
    return format_spec(name, {key: _canonical_value(kwargs[key]) for key in sorted(kwargs)})


__all__ = ["parse_spec", "parse_kwargs", "format_spec", "canonical_spec"]
