"""A small Lisp-like DSL for fingerprint processors.

Censys implements static fingerprints as declarative filters plus
processors "written in a Lisp-like DSL"; this module is that DSL.  Programs
are s-expressions evaluated against a service-record context:

    (and (contains (field "http.html_title") "RouterOS")
         (starts-with (field "http.server") "mikrotik"))

Supported forms: ``field``, string/number literals, ``and``, ``or``,
``not``, ``=``, ``!=``, ``>``, ``<``, ``>=``, ``<=``, ``contains``,
``starts-with``, ``ends-with``, ``matches`` (regex), ``in``, ``lower``,
``concat``, ``if``, ``present``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = ["DslError", "parse", "evaluate", "compile_program", "required_fields"]

Atom = Union[str, int, float, bool]
Expr = Union[Atom, List["Expr"]]


class DslError(ValueError):
    """Raised for syntax or evaluation errors in fingerprint programs."""


_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[()]|[^\s()]+')


def parse(text: str) -> Expr:
    """Parse one s-expression."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise DslError("empty program")
    expr, rest = _read(tokens)
    if rest:
        raise DslError(f"trailing tokens: {rest!r}")
    return expr


def _read(tokens: List[str]) -> tuple[Expr, List[str]]:
    if not tokens:
        raise DslError("unexpected end of input")
    token, rest = tokens[0], tokens[1:]
    if token == "(":
        items: List[Expr] = []
        while rest and rest[0] != ")":
            item, rest = _read(rest)
            items.append(item)
        if not rest:
            raise DslError("unbalanced parentheses")
        return items, rest[1:]
    if token == ")":
        raise DslError("unexpected ')'")
    return _atom(token), rest


def _atom(token: str) -> Atom:
    if token.startswith('"'):
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if token in ("true", "#t"):
        return True
    if token in ("false", "#f"):
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token  # bare symbol


def _as_text(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def evaluate(expr: Expr, record: Dict[str, Any]) -> Any:
    """Evaluate a parsed program against a service record."""
    if isinstance(expr, (int, float, bool)):
        return expr
    if isinstance(expr, str):
        # Bare symbols other than operators are string literals by fiat.
        return expr
    if not expr:
        raise DslError("empty form")
    head = expr[0]
    if not isinstance(head, str):
        raise DslError(f"operator must be a symbol, got {head!r}")
    args = expr[1:]

    if head == "field":
        return record.get(str(evaluate(args[0], record)))
    if head == "present":
        return record.get(str(evaluate(args[0], record))) is not None
    if head == "and":
        return all(evaluate(a, record) for a in args)
    if head == "or":
        return any(evaluate(a, record) for a in args)
    if head == "not":
        _arity(head, args, 1)
        return not evaluate(args[0], record)
    if head == "if":
        _arity(head, args, 3)
        return evaluate(args[1], record) if evaluate(args[0], record) else evaluate(args[2], record)
    if head in ("=", "!=", ">", "<", ">=", "<="):
        _arity(head, args, 2)
        left, right = evaluate(args[0], record), evaluate(args[1], record)
        return _compare(head, left, right)
    if head == "contains":
        _arity(head, args, 2)
        hay = evaluate(args[0], record)
        needle = _as_text(evaluate(args[1], record))
        if isinstance(hay, (list, tuple)):
            return needle in [str(h) for h in hay]
        return needle.lower() in _as_text(hay).lower()
    if head == "starts-with":
        _arity(head, args, 2)
        return _as_text(evaluate(args[0], record)).startswith(_as_text(evaluate(args[1], record)))
    if head == "ends-with":
        _arity(head, args, 2)
        return _as_text(evaluate(args[0], record)).endswith(_as_text(evaluate(args[1], record)))
    if head == "matches":
        _arity(head, args, 2)
        return re.search(_as_text(evaluate(args[1], record)), _as_text(evaluate(args[0], record))) is not None
    if head == "in":
        value = evaluate(args[0], record)
        return any(evaluate(a, record) == value for a in args[1:])
    if head == "lower":
        _arity(head, args, 1)
        return _as_text(evaluate(args[0], record)).lower()
    if head == "concat":
        return "".join(_as_text(evaluate(a, record)) for a in args)
    raise DslError(f"unknown operator: {head}")


def _compare(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    try:
        if op == ">":
            return left > right
        if op == "<":
            return left < right
        if op == ">=":
            return left >= right
        return left <= right
    except TypeError:
        return False


def _arity(op: str, args: list, n: int) -> None:
    if len(args) != n:
        raise DslError(f"{op} expects {n} arguments, got {len(args)}")


def required_fields(expr: Expr) -> frozenset:
    """Record fields that must be present and non-``None`` for ``expr`` to
    be truthy — what a rule index may anchor the program on.

    Conservative: a field is listed only when its absence *forces* a falsy
    result.  ``present`` and the comparisons other than ``!=`` do that (a
    missing field reads as ``None``, which equals no literal and orders
    against nothing); the text operators do not, because ``None`` reads as
    the empty string, which every string starts with.
    """
    if not isinstance(expr, list) or not expr:
        return frozenset()
    head, args = expr[0], expr[1:]
    if head == "and":
        return frozenset().union(*(required_fields(a) for a in args))
    if head == "or" and args:
        return frozenset.intersection(*(required_fields(a) for a in args))
    if head == "present" and args and isinstance(args[0], str):
        return frozenset((args[0],))
    if head in ("=", ">", "<", ">=", "<=") and len(args) == 2:
        fields = [
            a[1] for a in args
            if isinstance(a, list) and len(a) == 2 and a[0] == "field" and isinstance(a[1], str)
        ]
        # Two field operands can both be missing and compare equal.
        if len(fields) == 1:
            return frozenset(fields)
    return frozenset()


def compile_program(text: str) -> Callable[[Dict[str, Any]], Any]:
    """Parse once, evaluate many times.

    The program is compiled to nested closures, so a run costs one call
    per node instead of re-dispatching on the operator string at every
    node.  Semantics are those of :func:`evaluate` (the retained
    reference); an unknown operator or a wrong argument count is reported
    here, when the rule is built, rather than on the first record that
    reaches the bad node.
    """
    return _compile(parse(text))


#: Operator -> required argument count (None: variadic).
_ARITY: Dict[str, Optional[int]] = {
    "field": None, "present": None, "and": None, "or": None, "in": None, "concat": None,
    "not": 1, "if": 3, "lower": 1,
    "=": 2, "!=": 2, ">": 2, "<": 2, ">=": 2, "<=": 2,
    "contains": 2, "starts-with": 2, "ends-with": 2, "matches": 2,
}


def _compile(expr: Expr) -> Callable[[Dict[str, Any]], Any]:
    if not isinstance(expr, list):
        # Literals, and bare symbols (string literals by fiat).
        return lambda record: expr
    if not expr:
        raise DslError("empty form")
    head = expr[0]
    if not isinstance(head, str):
        raise DslError(f"operator must be a symbol, got {head!r}")
    if head not in _ARITY:
        raise DslError(f"unknown operator: {head}")
    args = [_compile(a) for a in expr[1:]]
    if _ARITY[head] is not None:
        _arity(head, args, _ARITY[head])
    elif not args and head in ("field", "present", "in"):
        raise DslError(f"{head} expects at least 1 argument, got 0")

    if head == "field":
        name = args[0]
        return lambda record: record.get(str(name(record)))
    if head == "present":
        name = args[0]
        return lambda record: record.get(str(name(record))) is not None
    if head == "and":
        return lambda record: all(a(record) for a in args)
    if head == "or":
        return lambda record: any(a(record) for a in args)
    if head == "not":
        (inner,) = args
        return lambda record: not inner(record)
    if head == "if":
        test, then, otherwise = args
        return lambda record: then(record) if test(record) else otherwise(record)
    if head in ("=", "!=", ">", "<", ">=", "<="):
        left, right = args
        return lambda record: _compare(head, left(record), right(record))
    if head == "contains":
        hay_of, needle_of = args

        def contains(record: Dict[str, Any]) -> bool:
            hay = hay_of(record)
            needle = _as_text(needle_of(record))
            if isinstance(hay, (list, tuple)):
                return needle in [str(h) for h in hay]
            return needle.lower() in _as_text(hay).lower()

        return contains
    if head == "starts-with":
        text, prefix = args
        return lambda record: _as_text(text(record)).startswith(_as_text(prefix(record)))
    if head == "ends-with":
        text, suffix = args
        return lambda record: _as_text(text(record)).endswith(_as_text(suffix(record)))
    if head == "matches":
        text, pattern = args
        return lambda record: (
            re.search(_as_text(pattern(record)), _as_text(text(record))) is not None
        )
    if head == "in":
        value_of, options = args[0], args[1:]

        def member(record: Dict[str, Any]) -> bool:
            value = value_of(record)
            return any(option(record) == value for option in options)

        return member
    if head == "lower":
        (text,) = args
        return lambda record: _as_text(text(record)).lower()
    return lambda record: "".join(_as_text(a(record)) for a in args)  # concat

