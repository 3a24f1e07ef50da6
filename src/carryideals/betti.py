"""Sparse tables of graded Betti numbers, with the usual grid rendering."""


class BettiTable:
    """Map (homological index i, internal degree j) -> multiplicity.

    Zero entries are never stored. The conventional grid display puts beta_{i, i+r}
    in column i and row r, prints "." for zeros and prepends a totals row.
    """

    __slots__ = ("entries", "n")

    def __init__(self, entries, n):
        clean = {}
        for (i, j), v in dict(entries).items():
            if v < 0:
                raise ValueError(f"negative multiplicity at {(i, j)}")
            if v:
                clean[(int(i), int(j))] = int(v)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "n", int(n))

    def __setattr__(self, name, value):
        raise AttributeError("BettiTable is immutable")

    def __getitem__(self, key):
        return self.entries.get(tuple(key), 0)

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.entries == other.entries and self.n == other.n

    def __hash__(self):
        return hash((frozenset(self.entries.items()), self.n))

    def __repr__(self):
        return f"BettiTable({dict(sorted(self.entries.items()))!r}, n={self.n})"

    @property
    def projective_dimension(self):
        return max(i for i, _ in self.entries)

    @property
    def regularity(self):
        return max(j - i for i, j in self.entries)

    def total(self, i):
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def to_grid(self):
        cols = range(self.projective_dimension + 1)
        rows = range(self.regularity + 1)
        body = [["total:"] + [str(self.total(i) or ".") for i in cols]]
        for r in rows:
            body.append([f"{r}:"] + [str(self[i, i + r] or ".") for i in cols])
        header = [""] + [str(i) for i in cols]
        table = [header] + body
        widths = [max(len(row[k]) for row in table) for k in range(len(header))]
        return "\n".join(
            " ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
            for row in table
        )

    def to_json(self):
        return {
            "n": self.n,
            "entries": [[i, j, v] for (i, j), v in sorted(self.entries.items())],
        }
