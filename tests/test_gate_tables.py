"""The gate tables pinned as literals.

Each circuit is stated once in the timing tables and the sequences, the
component table, the gate-name lists and the total T are derived from it.
These literals are the independent reference for that derivation: every
value is compared with ``==``, order and container type included.
"""

from spinforge import gates, timing
from spinforge.timing import GATE_TABLES, GateSpec

CCNOT_SEQUENCE = (
    GateSpec("cx_half", 2, 3, 3),
    GateSpec("cnot", 1, 2, 3),
    GateSpec("cx_neg_half", 2, 3, 3),
    GateSpec("cnot", 1, 2, 3),
    GateSpec("cx_half", 1, 3, 3),
)

CCCNOT_SEQUENCE = (
    GateSpec("cx_quarter", 1, 4, 4),
    GateSpec("cnot", 1, 2, 4),
    GateSpec("cx_neg_quarter", 2, 4, 4),
    GateSpec("cnot", 1, 2, 4),
    GateSpec("cx_quarter", 2, 4, 4),
    GateSpec("cnot", 2, 3, 4),
    GateSpec("cx_neg_quarter", 3, 4, 4),
    GateSpec("cnot", 1, 3, 4),
    GateSpec("cx_quarter", 3, 4, 4),
    GateSpec("cnot", 2, 3, 4),
    GateSpec("cx_neg_quarter", 3, 4, 4),
    GateSpec("cnot", 1, 3, 4),
    GateSpec("cx_quarter", 3, 4, 4),
)

COMPONENT_ROWS = (
    ((3, "cx_half", 2, 3), (("t1", "t2", "t3"), "T1")),
    ((3, "cnot", 1, 2), (("t4", "t5"), "T2")),
    ((3, "cx_half", 1, 3), (("t6", "t7", "t8"), "T3")),
    ((4, "cx_quarter", 1, 4), (("t1", "t2", "t3"), "T1")),
    ((4, "cnot", 1, 2), (("t4", "t5"), "T2")),
    ((4, "cx_quarter", 2, 4), (("t6", "t7", "t8"), "T3")),
    ((4, "cnot", 2, 3), (("t9", "t10"), "T4")),
    ((4, "cx_quarter", 3, 4), (("t11", "t12", "t13"), "T5")),
    ((4, "cnot", 1, 3), (("t14", "t15"), "T6")),
)

WHOLE_GATES = ("not", "cz", "cnot", "ccnot", "cccnot", "hadamard_like")

X_POWER_ALPHA = (
    ("cx_half", 0.5),
    ("cx_neg_half", -0.5),
    ("cx_quarter", 0.25),
    ("cx_neg_quarter", -0.25),
)

TOTALS = {
    "not": (("T", (("t1", 1), ("t2", 1))),),
    "cz": (("T", (("t1", 1),)),),
    "cnot": (("T", (("t1", 1), ("t2", 2))),),
    "ccnot": (
        ("T1", (("t1", 1), ("t2", 2), ("t3", 3))),
        ("T2", (("t4", 1), ("t5", 5))),
        ("T3", (("t6", 1), ("t7", 2), ("t8", 3))),
        ("T", (("T1", 2), ("T2", 2), ("T3", 1))),
    ),
    "cccnot": (
        ("T1", (("t1", 1), ("t2", 2), ("t3", 7))),
        ("T2", (("t4", 1), ("t5", 9))),
        ("T3", (("t6", 1), ("t7", 2), ("t8", 7))),
        ("T4", (("t9", 1), ("t10", 9))),
        ("T5", (("t11", 1), ("t12", 2), ("t13", 7))),
        ("T6", (("t14", 1), ("t15", 9))),
        ("T", (("T1", 1), ("T2", 2), ("T3", 2), ("T4", 2), ("T5", 4), ("T6", 2))),
    ),
}


def _items(mapping):
    assert type(mapping) is dict
    return tuple(mapping.items())


def test_circuit_sequences():
    assert type(gates.CCNOT_SEQUENCE) is tuple
    assert gates.CCNOT_SEQUENCE == CCNOT_SEQUENCE
    assert gates.CCCNOT_SEQUENCE == CCCNOT_SEQUENCE
    assert _items(gates.CIRCUITS) == (
        ("ccnot", CCNOT_SEQUENCE),
        ("cccnot", CCCNOT_SEQUENCE),
    )


def test_audit_specs_are_first_uses():
    assert gates.AUDIT_SPECS_3Q == (
        GateSpec("cx_half", 2, 3, 3),
        GateSpec("cnot", 1, 2, 3),
        GateSpec("cx_neg_half", 2, 3, 3),
        GateSpec("cx_half", 1, 3, 3),
    )
    assert gates.AUDIT_SPECS_4Q == (
        GateSpec("cx_quarter", 1, 4, 4),
        GateSpec("cnot", 1, 2, 4),
        GateSpec("cx_neg_quarter", 2, 4, 4),
        GateSpec("cx_quarter", 2, 4, 4),
        GateSpec("cnot", 2, 3, 4),
        GateSpec("cx_neg_quarter", 3, 4, 4),
        GateSpec("cnot", 1, 3, 4),
        GateSpec("cx_quarter", 3, 4, 4),
    )


def test_component_table_rows_in_order():
    assert _items(timing.COMPONENT_TABLE) == COMPONENT_ROWS


def test_gate_name_lists():
    assert _items(timing.COMPONENT_PARENT_GATE) == ((3, "ccnot"), (4, "cccnot"))
    assert timing.WHOLE_GATES == WHOLE_GATES
    assert timing.GATE_KINDS == WHOLE_GATES + tuple(k for k, _ in X_POWER_ALPHA)
    assert _items(timing.ADJOINT_BASE) == (
        ("cx_neg_half", "cx_half"),
        ("cx_neg_quarter", "cx_quarter"),
    )
    assert _items(gates.X_POWER_ALPHA) == X_POWER_ALPHA


def test_gate_table_totals():
    assert tuple(GATE_TABLES) == tuple(TOTALS)
    for gate, totals in TOTALS.items():
        assert GATE_TABLES[gate].totals == totals, gate


def test_no_window_constrains_a_knob_twice():
    # Deriving a window's constants stores one value per knob.
    for gate, table in GATE_TABLES.items():
        for label, constraints in table.windows:
            kinds = [c.kind for c in constraints]
            assert len(set(kinds)) == len(kinds), (gate, label)
