"""Brute-force oracles, deliberately independent of the library's algorithms.

Each oracle recomputes a result by exhaustive definition-chasing (matrix
transitive closure, powerset enumeration, naive fixpoints) so the fast
implementations have something honest to be checked against.
"""

from itertools import combinations

from roughfca.fca import FormalContext, Implication


def closure_partition_bruteforce(objects, edge_pairs):
    """Reflexive-symmetric-transitive closure of a pair relation via boolean
    matrix squaring; returns the classes as a frozenset of frozensets."""
    n = len(objects)
    index = {o: i for i, o in enumerate(objects)}
    reach = [[i == j for j in range(n)] for i in range(n)]
    for x, y in edge_pairs:
        reach[index[x]][index[y]] = True
        reach[index[y]][index[x]] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(reach[i][k] and reach[k][j] for k in range(n)):
                    reach[i][j] = True
                    changed = True
    classes = {}
    for i in range(n):
        key = tuple(reach[i])
        classes.setdefault(key, []).append(objects[i])
    return frozenset(frozenset(c) for c in classes.values())


def concepts_bruteforce(context: FormalContext):
    """All concepts as {(extent frozenset, intent frozenset)} by closing every
    attribute subset."""
    m = len(context.attributes)
    found = set()
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            mask = 0
            for a in combo:
                mask |= 1 << a
            extent = context.extent_of(mask)
            intent = context.intent_of(extent)
            found.add((frozenset(context.object_names(extent)),
                       frozenset(context.attr_names(intent))))
    return found


def valid_implications_bruteforce(context: FormalContext, require_support=True):
    """Every implication premise -> closure(premise) \\ premise that holds in
    the context, optionally restricted to premises some object satisfies.
    Yields (premise frozenset, conclusion frozenset)."""
    m = len(context.attributes)
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            mask = 0
            for a in combo:
                mask |= 1 << a
            extent = context.extent_of(mask)
            if require_support and extent == 0:
                continue
            closed = context.intent_of(extent)
            if closed != mask:
                yield (frozenset(context.attr_names(mask)),
                       frozenset(context.attr_names(closed & ~mask)))


def naive_rule_closure(rules, attrs):
    """Fixpoint closure of an attribute set under (premise, conclusion)
    pairs, written independently of the library helper."""
    closed = set(attrs)
    while True:
        additions = set()
        for premise, conclusion in rules:
            if set(premise) <= closed:
                additions |= set(conclusion) - closed
        if not additions:
            return frozenset(closed)
        closed |= additions


def rules_of(basis):
    return [(imp.premise, imp.conclusion) for imp in basis]


def implication_holds(context: FormalContext, premise, conclusion) -> bool:
    """True iff every object containing the premise contains the conclusion."""
    pm = context.attr_mask(premise)
    cm = context.attr_mask(conclusion)
    extent = context.extent_of(pm)
    return context.extent_of(cm) & extent == extent


def hasse_edges_bruteforce(extents):
    """Cover pairs (i, j) of the inclusion order on a list of distinct sets."""
    edges = set()
    for i, ei in enumerate(extents):
        for j, ej in enumerate(extents):
            if i == j or not ej < ei:
                continue
            if not any(ej < ek < ei for k, ek in enumerate(extents) if k not in (i, j)):
                edges.add((i, j))
    return edges


def _next_closure_reference(mask: int, n: int, close) -> int | None:
    """Lectically smallest closed set after ``mask``, or None past the top."""
    for i in range(n - 1, -1, -1):
        bit = 1 << i
        if mask & bit:
            mask &= ~bit
        else:
            closed = close(mask | bit)
            if (closed & ~mask) & (bit - 1) == 0:
                return closed
    return None


def canonical_basis_reference(context: FormalContext, include_unsupported: bool = False):
    """The library's former canonical basis: Next-Closure over a logical
    closure that rescans every rule found so far until nothing changes.
    Same contract as ``roughfca.fca.canonical_basis``: rules by support
    descending, then lectic premise order."""
    n = len(context.attributes)
    rules: list[tuple[int, int]] = []  # (premise mask, full closure mask)

    def logical_closure(mask: int) -> int:
        changed = True
        while changed:
            changed = False
            for prem, concl in rules:
                if prem & ~mask == 0 and concl & ~mask:
                    mask |= concl
                    changed = True
        return mask

    mask = 0
    while mask is not None:
        closed = context.intent_closure(mask)
        if closed != mask:
            rules.append((mask, closed))
        mask = _next_closure_reference(mask, n, logical_closure)

    out = []
    for prem, closed in rules:
        support = context.extent_of(prem).bit_count()
        if support == 0 and not include_unsupported:
            continue
        out.append(Implication(
            premise=context.attr_names(prem),
            conclusion=context.attr_names(closed & ~prem),
            support=support,
        ))
    out.sort(key=lambda imp: -imp.support)  # stable: keeps lectic order within ties
    return out


def is_valid_partition(blocks, universe) -> bool:
    seen = []
    for block in blocks:
        if not block:
            return False
        seen.extend(block)
    return len(seen) == len(set(seen)) and set(seen) == set(universe)


# --- bitmask variants, for the high-volume randomized suites -----------------

def concepts_bruteforce_masks(context: FormalContext):
    """All (extent mask, intent mask) pairs from closing every attribute subset."""
    m = len(context.attributes)
    found = set()
    for mask in range(1 << m):
        extent = context.extent_of(mask)
        found.add((extent, context.intent_of(extent)))
    return found


def mask_rules(basis, context: FormalContext):
    return [(context.attr_mask(imp.premise), context.attr_mask(imp.conclusion))
            for imp in basis]


def mask_closure(rules, mask: int) -> int:
    changed = True
    while changed:
        changed = False
        for premise, conclusion in rules:
            if premise & ~mask == 0 and conclusion & ~mask:
                mask |= conclusion
                changed = True
    return mask


def valid_implication_masks(context: FormalContext, require_support=True):
    """(premise mask, proper-conclusion mask) of every implication that holds."""
    m = len(context.attributes)
    for mask in range(1 << m):
        extent = context.extent_of(mask)
        if require_support and extent == 0:
            continue
        closed = context.intent_of(extent)
        if closed != mask:
            yield mask, closed & ~mask


def pseudo_intents_bruteforce(context: FormalContext):
    """Pseudo-closed attribute sets straight from the recursive definition:
    a non-closed set containing the closure of every pseudo-closed proper
    subset.  Scans the powerset in size order so smaller pseudo-closed sets
    are always known first."""
    m = len(context.attributes)
    pseudo: list[int] = []
    for mask in sorted(range(1 << m), key=lambda x: (x.bit_count(), x)):
        if context.intent_closure(mask) == mask:
            continue
        if all(q & ~mask or context.intent_closure(q) & ~mask == 0
               for q in pseudo if q != mask):
            pseudo.append(mask)
    return pseudo
