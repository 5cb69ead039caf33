"""The benchmark's own reference results, computed without the library.

Partitions come from the definition: the proximity degrees of every pair,
the (alpha, beta) cut, then the transitive closure of the cut graph by
graph search.  The arithmetic follows the degree formulas operation for
operation, so the cut decisions are the library's bit for bit.
"""

from __future__ import annotations


def cut_blocks(labels: list[str], values: list[float], range_max: float,
               alpha: float, beta: float) -> frozenset[frozenset[str]]:
    """Classes of the transitive closure of {(x, y): mu >= alpha, nu <= beta}."""
    n = len(values)
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        x = float(values[i])
        for j in range(i + 1, n):
            y = float(values[j])
            diff = abs(x - y)
            mu = 1.0 - diff / range_max
            nu = diff / (2.0 * (x + y))
            if mu >= alpha and nu <= beta:
                adjacent[i].append(j)
                adjacent[j].append(i)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, block = [start], []
        while stack:
            i = stack.pop()
            block.append(labels[i])
            for j in adjacent[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        blocks.append(frozenset(block))
    return frozenset(blocks)


def table_blocks(names: list[str], rows: list[tuple[str, list[int]]], range_max: float,
                 alpha: float, beta: float) -> dict[str, frozenset[frozenset[str]]]:
    """Reference partition of every attribute of a generated table."""
    labels = [label for label, _ in rows]
    return {
        name: cut_blocks(labels, [values[k] for _, values in rows], range_max, alpha, beta)
        for k, name in enumerate(names)
    }


def partition_docs(blocks: dict[str, frozenset[frozenset[str]]],
                   labels: list[str]) -> list[dict]:
    """Target documents in the library's partition JSON layout, blocks in
    universe order."""
    order = {label: i for i, label in enumerate(labels)}
    docs = []
    for name, classes in blocks.items():
        ordered = sorted((sorted(c, key=order.__getitem__) for c in classes),
                         key=lambda b: order[b[0]])
        docs.append({"attribute": name, "blocks": ordered})
    return docs
