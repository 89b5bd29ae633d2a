"""The exhaustive consecutive-ones search, kept as a slow reference.

It tries column orders by backtracking, closing a row once the order has
left it, so its cost grows factorially with the number of columns; the
library uses a PQ-tree instead.
"""

from __future__ import annotations


def consecutive_arrangement_exhaustive(rows, size: int) -> list[int] | None:
    """Backtracking search over all column orders; the independent oracle
    for the PQ-tree (practical for size <= 8)."""
    wanted = [set(r) for r in {frozenset(r) for r in rows} if len(r) >= 2]
    if size == 0:
        return []
    order: list[int] = []
    used = [False] * size
    seen = [0] * len(wanted)
    closed = [False] * len(wanted)

    def place(depth: int) -> bool:
        if depth == size:
            return True
        for col in range(size):
            if used[col]:
                continue
            touched = []
            ok = True
            for ri, row in enumerate(wanted):
                if col in row:
                    if closed[ri]:
                        ok = False
                        break
                    seen[ri] += 1
                    touched.append(ri)
            if ok:
                newly_closed = [
                    ri
                    for ri, row in enumerate(wanted)
                    if not closed[ri] and 0 < seen[ri] < len(row) and col not in row
                ]
                for ri in newly_closed:
                    closed[ri] = True
                used[col] = True
                order.append(col)
                if place(depth + 1):
                    return True
                order.pop()
                used[col] = False
                for ri in newly_closed:
                    closed[ri] = False
            for ri in touched:
                seen[ri] -= 1
        return False

    return list(order) if place(0) else None
