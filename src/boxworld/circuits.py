"""Boolean functions as truth tables and NAND-gate circuits.

Assignments are indexed little-endian: variable 0 is bit 0 of the row
index.  Circuits are DAGs of two-input NAND gates over named input leaves
and optional constant leaves; gate ids are "g0", "g1", ... in topological
order.  Synthesis uses Shannon expansion into a multiplexer tree, local
rewriting of the multiplexers into NANDs (with hash-consing so shared
subfunctions become shared gates), and double-negation peephole removal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatch, MissingAssignment, ShapeMismatch, TooLarge, VerificationFailed

TRUTH_TABLE_CAP = 2 ** 20
VERIFY_CAP_VARS = 20


@dataclass(frozen=True)
class TruthTable:
    """Total Boolean function on n_vars bits, row-indexed little-endian."""

    n_vars: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != 2 ** self.n_vars:
            raise DimensionMismatch(
                f"truth table needs {2 ** self.n_vars} rows, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise DimensionMismatch("truth table entries must be bits")

    @staticmethod
    def from_function(n_vars: int, func: Callable[[tuple[int, ...]], int]) -> "TruthTable":
        rows = []
        for idx in range(2 ** n_vars):
            assignment = tuple((idx >> v) & 1 for v in range(n_vars))
            rows.append(func(assignment) & 1)
        return TruthTable(n_vars, tuple(rows))

    @staticmethod
    def from_int(n_vars: int, mask: int) -> "TruthTable":
        return TruthTable(n_vars, tuple((mask >> i) & 1 for i in range(2 ** n_vars)))

    def as_int(self) -> int:
        mask = 0
        for i, b in enumerate(self.bits):
            mask |= b << i
        return mask

    def value(self, assignment: Sequence[int]) -> int:
        if len(assignment) != self.n_vars:
            raise DimensionMismatch(
                f"assignment of length {len(assignment)} for {self.n_vars} variables"
            )
        idx = 0
        for v, b in enumerate(assignment):
            idx |= (b & 1) << v
        return self.bits[idx]

    def __call__(self, assignment: Sequence[int]) -> int:
        return self.value(assignment)


@dataclass(frozen=True)
class InputBit:
    name: str
    party: Optional[int] = None


@dataclass(frozen=True)
class Constant:
    name: str
    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or self.value not in (0, 1):
            raise DimensionMismatch(f"constant {self.name!r} must be 0 or 1, got {self.value!r}")


def _is_gate_id(name: str) -> bool:
    return name.startswith("g") and name[1:].isdigit()


@dataclass(frozen=True, eq=False)
class NandCircuit:
    """A DAG of NAND gates; `gates[i]` is ("g<i>"'s operands) referring to
    earlier gate ids, input names, or constant names."""

    inputs: tuple[InputBit, ...]
    gates: tuple[tuple[str, str], ...]
    output: str
    constants: tuple[Constant, ...] = ()

    def __post_init__(self):
        known = {b.name for b in self.inputs} | {c.name for c in self.constants}
        if len(known) != len(self.inputs) + len(self.constants):
            raise DimensionMismatch("duplicate leaf names in circuit")
        for name in known:
            if _is_gate_id(name):
                raise DimensionMismatch(f"leaf name {name!r} is reserved for gate ids")
        for i, (left, right) in enumerate(self.gates):
            for ref in (left, right):
                if ref not in known:
                    raise DimensionMismatch(f"gate g{i} references unknown node {ref!r}")
            known.add(f"g{i}")
        if self.output not in known:
            raise DimensionMismatch(f"output {self.output!r} references unknown node")

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.inputs)

    def to_json_dict(self) -> dict:
        return {
            "inputs": [{"name": b.name, "party": b.party} for b in self.inputs],
            "gates": [{"l": l, "r": r} for (l, r) in self.gates],
            "output": self.output,
            "constants": {c.name: c.value for c in self.constants},
        }

    @staticmethod
    def from_json_dict(data: dict) -> "NandCircuit":
        return NandCircuit(
            inputs=tuple(InputBit(d["name"], d.get("party")) for d in data["inputs"]),
            gates=tuple((g["l"], g["r"]) for g in data["gates"]),
            output=data["output"],
            constants=tuple(Constant(k, int(v)) for k, v in data.get("constants", {}).items()),
        )


def eval_circuit(circuit: NandCircuit, assignment) -> int:
    """Evaluate the circuit on one assignment: `wire_bitsets` on one row.

    `assignment` maps input names to bits, or is a sequence aligned with
    `circuit.inputs`.
    """
    if not isinstance(assignment, dict):
        seq = list(assignment)
        if len(seq) != len(circuit.inputs):
            raise MissingAssignment(
                f"expected {len(circuit.inputs)} input bits, got {len(seq)}"
            )
        assignment = {b.name: v for b, v in zip(circuit.inputs, seq)}
    values = {}
    for b in circuit.inputs:
        if b.name not in assignment:
            raise MissingAssignment(f"no value for input {b.name!r}")
        values[b.name] = assignment[b.name] & 1
    return wire_bitsets(circuit, values, 1)[circuit.output]


def circuit_function(circuit: NandCircuit, n_vars: Optional[int] = None) -> Callable[[tuple[int, ...]], int]:
    """View a circuit as a function of a flat bit tuple in input order."""
    if n_vars is not None and n_vars != len(circuit.inputs):
        raise ShapeMismatch(
            f"circuit has {len(circuit.inputs)} inputs, expected {n_vars}"
        )

    def func(bits):
        return eval_circuit(circuit, bits)

    return func


def live_nodes(circuit: NandCircuit) -> set[str]:
    """Names of all nodes reachable from the output, in one backward pass:
    a gate's operands always come before it."""
    live = {circuit.output}
    for i in range(len(circuit.gates) - 1, -1, -1):
        if f"g{i}" in live:
            live.update(circuit.gates[i])
    return live


def prune(circuit: NandCircuit) -> NandCircuit:
    """Drop the gates and constants not reachable from the output; keep all inputs.

    Input leaves always survive (they define the function's domain); dead
    gates and dead constants are removed and gates are renumbered.  A
    circuit with nothing dead is returned as it is.
    """
    live = live_nodes(circuit)
    constants = tuple(c for c in circuit.constants if c.name in live)
    if len(constants) == len(circuit.constants) and all(f"g{i}" in live for i in range(len(circuit.gates))):
        return circuit
    rename = {}
    new_gates = []
    for i, (left, right) in enumerate(circuit.gates):
        name = f"g{i}"
        if name in live:
            rename[name] = f"g{len(new_gates)}"
            new_gates.append((rename.get(left, left), rename.get(right, right)))
    return NandCircuit(
        inputs=circuit.inputs,
        gates=tuple(new_gates),
        output=rename.get(circuit.output, circuit.output),
        constants=constants,
    )


def gate_count(circuit: NandCircuit) -> int:
    """Number of NAND gates reachable from the output."""
    return sum(1 for name in live_nodes(circuit) if _is_gate_id(name))


def run_window(run: int, lo: int, length: int) -> int:
    """Row bitset of `length` rows whose bit j is ((lo + j) // run) & 1.

    In a table whose row index holds a variable at bit v, that variable's
    column is the window with run 2^v.  The first rows keep row lo's
    value up to the next multiple of `run`; after them whole runs
    alternate, ones first when row lo is 0: one run of ones and one of
    zeros, doubled until it covers the rest.  A window that starts on a 1
    is the complement of that.  The cost grows with the window only, not
    with the run or lo.
    """
    head = min(run - lo % run, length)
    tail = length - head
    pattern, covered = (1 << min(run, tail)) - 1, 2 * run
    while covered < tail:
        pattern |= pattern << covered
        covered *= 2
    window = (pattern & ((1 << tail) - 1)) << head
    return window ^ ((1 << length) - 1) if (lo // run) & 1 else window


def row_bits(bitset: int, n_rows: int) -> list[int]:
    """The 0/1 values of a row bitset, row 0 first."""
    return list(map(int, reversed(bin(bitset | 1 << n_rows)[3:])))


def wire_bitsets(circuit: NandCircuit, leaves: dict[str, int], n_rows: int) -> dict[str, int]:
    """Every wire's value on n_rows rows at once, as row bitsets (bit r is
    the value on row r), from the input leaves' bitsets: a constant is all
    ones or all zeros, and a gate is one big-int NAND."""
    full = (1 << n_rows) - 1
    values = dict(leaves)
    for c in circuit.constants:
        values[c.name] = full if c.value else 0
    for i, (left, right) in enumerate(circuit.gates):
        values[f"g{i}"] = full ^ (values[left] & values[right])
    return values


def truth_table(circuit: NandCircuit, _cap: int = TRUTH_TABLE_CAP) -> TruthTable:
    """Exhaustive evaluation over all assignments (little-endian row order),
    every row at once: variable v's column is `run_window(2^v, 0, 2^n)`."""
    n = len(circuit.inputs)
    if 2 ** n > _cap:
        raise TooLarge(2 ** n, _cap)
    rows = 2 ** n
    leaves = {b.name: run_window(1 << v, 0, rows) for v, b in enumerate(circuit.inputs)}
    out = wire_bitsets(circuit, leaves, rows)[circuit.output]
    return TruthTable(n, tuple(row_bits(out, rows)))


class _Builder:
    """Hash-consing NAND-circuit builder with double-negation peephole."""

    def __init__(self, input_names: Sequence[str]):
        self.inputs = tuple(InputBit(name) for name in input_names)
        self.gates: list[tuple[str, str]] = []
        self._cache: dict[tuple[str, str], str] = {}
        self._constants: dict[int, str] = {}

    def const(self, value: int) -> str:
        value &= 1
        if value not in self._constants:
            self._constants[value] = f"const{value}"
        return self._constants[value]

    def is_const(self, ref: str):
        for v, name in self._constants.items():
            if name == ref:
                return v
        return None

    def nand(self, left: str, right: str) -> str:
        lc, rc = self.is_const(left), self.is_const(right)
        if lc == 0 or rc == 0:
            return self.const(1)
        if lc == 1:
            return self.not_(right)
        if rc == 1:
            return self.not_(left)
        key = (left, right) if left <= right else (right, left)
        if key not in self._cache:
            self.gates.append(key)
            self._cache[key] = f"g{len(self.gates) - 1}"
        return self._cache[key]

    def not_(self, ref: str) -> str:
        c = self.is_const(ref)
        if c is not None:
            return self.const(c ^ 1)
        # peephole: NOT(NOT(x)) -> x when ref is already a NAND(x, x) gate
        if ref.startswith("g"):
            left, right = self.gates[int(ref[1:])]
            if left == right:
                return left
        key = (ref, ref)
        if key not in self._cache:
            self.gates.append(key)
            self._cache[key] = f"g{len(self.gates) - 1}"
        return self._cache[key]

    def finish(self, output: str) -> NandCircuit:
        constants = tuple(Constant(name, v) for v, name in sorted(self._constants.items()))
        circuit = NandCircuit(self.inputs, tuple(self.gates), output, constants)
        return prune(circuit)


def synthesize_nand(table: TruthTable, input_names: Optional[Sequence[str]] = None) -> NandCircuit:
    """Build a NAND circuit computing `table`, verified exhaustively before return.

    Shannon-expands on the highest variable, memoizing subfunctions so that
    repeated cofactors share gates, then rewrites each multiplexer into
    NANDs.  Constant functions come out as a constant leaf.  Gate count is
    an upper bound on the minimum, which is all downstream accounting needs.
    """
    n = table.n_vars
    if input_names is None:
        input_names = [f"x{v}" for v in range(n)]
    if len(input_names) != n:
        raise DimensionMismatch(f"{n} input names required, got {len(input_names)}")
    builder = _Builder(input_names)
    memo: dict[tuple[int, int], str] = {}

    def build(mask: int, v: int) -> str:
        # mask encodes the subfunction over variables 0..v-1.
        rows = 1 << v
        full = (1 << rows) - 1
        if mask == 0:
            return builder.const(0)
        if mask == full:
            return builder.const(1)
        key = (mask, v)
        if key in memo:
            return memo[key]
        half = rows >> 1
        low = mask & ((1 << half) - 1)
        high = mask >> half
        if low == high:
            ref = build(low, v - 1)
        else:
            sel = input_names[v - 1]
            half_full = (1 << half) - 1
            if low == 0:
                ref = builder.not_(builder.nand(sel, build(high, v - 1)))
            elif low == half_full:
                ref = builder.nand(sel, builder.not_(build(high, v - 1)))
            elif high == 0:
                ref = builder.not_(builder.nand(builder.not_(sel), build(low, v - 1)))
            elif high == half_full:
                ref = builder.nand(builder.not_(sel), builder.not_(build(low, v - 1)))
            else:
                c1 = build(high, v - 1)
                c0 = build(low, v - 1)
                ref = builder.nand(builder.nand(sel, c1), builder.nand(builder.not_(sel), c0))
        memo[key] = ref
        return ref

    if n == 0:
        out = builder.const(table.bits[0])
    else:
        out = build(table.as_int(), n)
    circuit = builder.finish(out)

    if n <= VERIFY_CAP_VARS:
        check = truth_table(circuit)
        if check != table:
            raise VerificationFailed("synthesized circuit does not match its truth table")
    return circuit


def _netlist_int(text: str, raw: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DimensionMismatch(f"cannot parse netlist line {raw!r}: {text!r} is not an integer") from None


def parse_netlist(text: str) -> NandCircuit:
    """Parse the plain-text circuit form.

    Lines (blank lines and `#` comments ignored):
        input <name> [party=<int>]
        const <name> = <0|1>
        g<i> = NAND(<ref>, <ref>)
        output <ref>
    """
    inputs = []
    constants = []
    gates = []
    output = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("input "):
            rest = line[len("input "):].split()
            party = None
            for token in rest[1:]:
                if token.startswith("party="):
                    party = _netlist_int(token[len("party="):], raw)
            inputs.append(InputBit(rest[0], party))
        elif line.startswith("const "):
            name, _, value = line[len("const "):].partition("=")
            constants.append(Constant(name.strip(), _netlist_int(value.strip(), raw)))
        elif line.startswith("output "):
            output = line[len("output "):].strip()
        elif "=" in line and "NAND" in line.upper():
            name, _, expr = line.partition("=")
            name = name.strip()
            if name != f"g{len(gates)}":
                raise DimensionMismatch(
                    f"gates must be declared in order; expected g{len(gates)}, got {name!r}"
                )
            inner = expr.strip()
            start = inner.upper().find("NAND(")
            end = inner.rfind(")")
            operands = [part.strip() for part in inner[start + len("NAND("):end].split(",")]
            if start < 0 or end < start or len(operands) != 2:
                raise DimensionMismatch(f"cannot parse netlist line {raw!r}: a gate is NAND(<ref>, <ref>)")
            gates.append(tuple(operands))
        else:
            raise DimensionMismatch(f"cannot parse netlist line {raw!r}")
    if output is None:
        raise DimensionMismatch("netlist is missing an output line")
    return NandCircuit(tuple(inputs), tuple(gates), output, tuple(constants))


def format_netlist(circuit: NandCircuit) -> str:
    lines = []
    for b in circuit.inputs:
        lines.append(f"input {b.name}" + (f" party={b.party}" if b.party is not None else ""))
    for c in circuit.constants:
        lines.append(f"const {c.name} = {c.value}")
    for i, (left, right) in enumerate(circuit.gates):
        lines.append(f"g{i} = NAND({left}, {right})")
    lines.append(f"output {circuit.output}")
    return "\n".join(lines) + "\n"


def all_truth_tables(n_vars: int):
    """Every Boolean function on n_vars bits (2^(2^n_vars) of them)."""
    for mask in range(2 ** (2 ** n_vars)):
        yield TruthTable.from_int(n_vars, mask)
