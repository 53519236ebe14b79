"""Boolean functions as truth tables.

A function of n variables is stored as an integer of 2**n bits.  Bit j of
the table holds the value of the function under the assignment encoded by j,
where x1 is the least significant bit of j, x2 the next one, and so on.
Read the serialized bit string left to right (most significant bit first)
and x1 alternates fastest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError


@dataclass(frozen=True, order=True)
class Literal:
    """A variable x_i or its negation, i being 1-based."""

    var: int
    positive: bool = True

    def __post_init__(self) -> None:
        if self.var < 1:
            raise InputError("variable index must be >= 1")

    def negate(self) -> "Literal":
        return Literal(self.var, not self.positive)

    def __str__(self) -> str:
        return ("x%d" if self.positive else "~x%d") % self.var


def _assignment_index(assignment: Iterable[int]) -> tuple[int, int]:
    # x1 is bit 0 of the index, x2 bit 1, ...
    idx = 0
    count = 0
    for i, bit in enumerate(assignment):
        if bit not in (0, 1, True, False):
            raise InputError("assignment entries must be bits")
        if bit:
            idx |= 1 << i
        count += 1
    return idx, count


def _check_n(n: int) -> None:
    # before any 2^n-bit table is built: n = 40 would take 128 GiB
    if not 1 <= n <= 24:
        raise InputError("n must be in 1..24")


@dataclass(frozen=True)
class BoolFunc:
    """Truth table of a Boolean function on n >= 1 variables."""

    n: int
    table: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not 0 <= self.table < (1 << (1 << self.n)):
            raise InputError("table does not fit in 2^n bits")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(n: int, value: bool) -> "BoolFunc":
        _check_n(n)
        size = 1 << n
        return BoolFunc(n, (1 << size) - 1 if value else 0)

    @staticmethod
    def from_literal(lit: Literal, n: int) -> "BoolFunc":
        _check_n(n)
        if lit.var > n:
            raise InputError("literal variable exceeds n")
        # one period: 2^(v-1) bits off then on (x_v), or on then off (~x_v)
        half = 1 << (lit.var - 1)
        table = ((1 << half) - 1) << (half if lit.positive else 0)
        for k in range(lit.var, n):
            table |= table << (1 << k)
        return BoolFunc(n, table)

    # -- core operations ----------------------------------------------

    def evaluate(self, assignment: Iterable[int]) -> bool:
        idx, count = _assignment_index(assignment)
        if count != self.n:
            raise InputError("assignment has %d bits, expected %d" % (count, self.n))
        return bool((self.table >> idx) & 1)

    def negate(self) -> "BoolFunc":
        size = 1 << self.n
        return BoolFunc(self.n, self.table ^ ((1 << size) - 1))

    def essential_vars(self) -> set[int]:
        """Variables whose flip changes the function somewhere."""
        # table >> 2^(i-1) puts the value at idx | bit i on idx; ~x_i's
        # table keeps the idx that have bit i clear
        t = self.table
        return {i for i in range(1, self.n + 1)
                if (t ^ t >> (1 << (i - 1)))
                & BoolFunc.from_literal(Literal(i, False), self.n).table}

    def is_constant(self) -> bool:
        return self.table in (0, (1 << (1 << self.n)) - 1)

    def lift(self, n: int) -> "BoolFunc":
        """The same function viewed on n >= self.n variables."""
        if n < self.n:
            raise InputError("cannot lift to fewer variables")
        _check_n(n)
        table = self.table
        width = 1 << self.n
        for _ in range(n - self.n):
            table |= table << width
            width <<= 1
        return BoolFunc(n, table)

    # -- serialization ------------------------------------------------

    def to_string(self) -> str:
        digits = max(1, (1 << self.n) // 4)
        return "n:%d:%0*x" % (self.n, digits, self.table)

    @staticmethod
    def from_string(text: str) -> "BoolFunc":
        # ASCII digits only: int() would also take "0x6", "e_a", "+3", " ea",
        # "03" and non-ASCII digits
        match = re.fullmatch(r"n:([1-9][0-9]*):([0-9a-fA-F]+)", text.strip())
        if match is None:
            raise InputError("expected 'n:<count>:<hex>', got %r" % text)
        return BoolFunc(int(match[1]), int(match[2], 16))

    def __str__(self) -> str:
        return self.to_string()
