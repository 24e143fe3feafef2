"""Equality oracle for the structural ``snapshot_state`` copy.

``snapshot_state`` walks dicts, lists and tuples itself instead of calling
``copy.deepcopy``.  The reference is ``deepcopy``: same values, the same
list-vs-tuple flavour at every depth, an all-immutable tuple handed back
as the same object, nothing mutable shared with the original, and any
other type still deep-copied.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import EventJournal, EventKind
from repro.pipeline.state import snapshot_state

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=25,
)
_STATES = st.dictionaries(st.text(max_size=6), _VALUES, max_size=6)


def same_shape(a, b) -> bool:
    """Equal values AND equal container flavour at every depth."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_shape(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_shape(x, y) for x, y in zip(a, b))
    return a == b


def shares_mutable(a, b) -> bool:
    """True when a mutable container of ``a`` is reachable from ``b``."""
    if isinstance(a, (dict, list)):
        if a is b:
            return True
    if isinstance(a, dict):
        return any(shares_mutable(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return any(shares_mutable(x, y) for x, y in zip(a, b))
    return False


@given(state=_STATES)
@settings(max_examples=300, deadline=None)
def test_structural_copy_equals_deepcopy(state):
    copied = snapshot_state(state)
    reference = copy.deepcopy(state)
    assert same_shape(copied, reference)
    assert copied is not state
    assert not shares_mutable(state, copied)


@given(values=st.lists(_SCALARS, max_size=5))
def test_immutable_tuple_is_returned_as_is_like_deepcopy(values):
    frozen = tuple(values)
    state = {"t": frozen, "nested": {"t": (frozen, 1)}}
    copied = snapshot_state(state)
    assert copied["t"] is frozen and copy.deepcopy(state)["t"] is frozen
    assert copied["nested"]["t"] is state["nested"]["t"]


def test_tuple_holding_a_mutable_is_rebuilt():
    inner = [1, 2]
    state = {"t": (inner, "x")}
    copied = snapshot_state(state)
    assert copied["t"] == (inner, "x") and type(copied["t"]) is tuple
    assert copied["t"] is not state["t"] and copied["t"][0] is not inner


def test_other_types_fall_back_to_deepcopy():
    class Box:
        def __init__(self, items):
            self.items = items

    state = {"set": {1, 2}, "bytes": bytearray(b"ab"), "box": Box([1]), "sub": {"s": {3}}}
    copied = snapshot_state(state)
    assert copied["set"] == {1, 2} and copied["set"] is not state["set"]
    assert copied["bytes"] == bytearray(b"ab") and copied["bytes"] is not state["bytes"]
    assert copied["box"] is not state["box"] and copied["box"].items == [1]
    assert copied["box"].items is not state["box"].items
    assert copied["sub"]["s"] is not state["sub"]["s"]


def test_mutating_a_reconstruction_never_reaches_the_live_row():
    journal = EventJournal(snapshot_every=2)
    journal.append("host:1", 1.0, EventKind.SERVICE_FOUND, {
        "key": "443/tcp", "protocol": "HTTP", "service_name": "HTTP",
        "record": {"tls.subject_names": ("a.example", "b.example"), "http.tags": ["x", ["y"]]},
    })
    journal.append("host:1", 2.0, EventKind.HOST_META, {"meta": {"labels": ["l1"]}})
    before = copy.deepcopy(journal.peek_current("host:1"))

    view = journal.reconstruct("host:1")
    assert same_shape(view, before)
    view["services"]["443/tcp"]["record"]["http.tags"][1].append("z")
    view["services"]["443/tcp"]["record"]["http.status"] = 500
    view["services"].clear()
    view["meta"]["labels"].append("l2")
    assert same_shape(journal.peek_current("host:1"), before)

    # The cadence snapshot row is isolated the same way, in both directions.
    _seq, _time, snapped, _size = journal._logs["host:1"].snapshots[-1]
    assert same_shape(snapped, before)
    journal.append("host:1", 3.0, EventKind.HOST_META, {"meta": {"labels": ["l3"]}})
    assert same_shape(snapped, before)
    historical = journal.reconstruct("host:1", at=2.0)
    historical["meta"]["labels"].append("oops")
    assert same_shape(snapped, before)
