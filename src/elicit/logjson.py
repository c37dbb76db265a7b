"""The episode-log JSON writer.

`dumps(obj)` returns exactly the text of
`json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1)`. With an
indent, the standard library encodes in pure Python through a chain of
generators; this writer builds each container with one `str.join` and
memoises the two things a log repeats most: the text of a float (its
`float.__repr__` is the costliest scalar) and the whole text of a dict whose
keys and values are all scalars, such as a detection's labels. Both memos
are bounded, and their keys keep apart values that compare equal but are
written differently (`0.0` and `-0.0`, or `1`, `1.0` and `True`).
"""

from __future__ import annotations

from json.encoder import encode_basestring

_INF = float("inf")
_MEMO_SIZE = 1024  # entries per memo; a full memo is emptied
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})

_float_texts: dict[float, str] = {}
_scalar_dict_texts: dict[tuple, str] = {}


def dumps(obj) -> str:
    return _encode(obj, 0)


def _remember(memo: dict, key, text: str) -> None:
    if len(memo) >= _MEMO_SIZE:
        memo.clear()
    memo[key] = text


def _float(x: float) -> str:
    text = _float_texts.get(x)
    if text is None:
        if x != x:
            return "NaN"
        if x == _INF:
            return "Infinity"
        if x == -_INF:
            return "-Infinity"
        text = float.__repr__(x)
        if x:  # 0.0 == -0.0 as a key, so zeros are not memoised
            _remember(_float_texts, x, text)
    return text


def _key(k) -> str:
    # the stdlib's order of tests for a dict key
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _encode(o, level: int) -> str:
    # the stdlib's order of tests for a value, so subclasses (IntEnum,
    # np.float64) are written as it writes them
    if isinstance(o, str):
        return encode_basestring(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = "\n" + " " * (level + 1)
        return "[" + inner + ("," + inner).join([_encode(v, level + 1) for v in o]) + "\n" + " " * level + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        types = (*map(type, o), *map(type, o.values()))
        if not _SCALAR_TYPES.issuperset(types):
            return _dict(o, level)
        # equal items of the same exact types are written alike, except 0.0
        # and -0.0, so a dict holding a float zero is never stored
        memo_key = (level, tuple(o.items()), types)
        text = _scalar_dict_texts.get(memo_key)
        if text is None:
            text = _dict(o, level)
            if all(x or type(x) is not float for x in (*o, *o.values())):
                _remember(_scalar_dict_texts, memo_key, text)
        return text
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _dict(d: dict, level: int) -> str:
    inner = "\n" + " " * (level + 1)
    items = [encode_basestring(_key(k)) + ": " + _encode(v, level + 1) for k, v in sorted(d.items())]
    return "{" + inner + ("," + inner).join(items) + "\n" + " " * level + "}"
