"""Compact (PATRICIA) tries over $-terminated strings.

Only the first symbol of every edge is stored; full edge labels are read back
through a caller-supplied character access when needed. Leaves sit in
lexicographic order (terminator smallest) and every vertex knows the rank
range of the leaves below it.
"""

from __future__ import annotations

TERMINATOR = -1  # edge key for the $ that ends every indexed string


class CompactTrie:
    """Vertex 0 is the root. Leaf ranks are 1-based.

    strlen counts the terminator, so a leaf for string s has strlen len(s)+1.
    `sample` holds one represented string id per vertex so edge labels can be
    recovered from the original text.
    """

    def __init__(self):
        self.parent: list[int] = [-1]
        self.strlen: list[int] = [0]
        self.children: list[dict[int, int]] = [{}]
        self.l_rank: list[int] = [0]
        self.r_rank: list[int] = [0]
        self.sample: list[int] = [-1]
        self.leaf_rank: list[int] = [0]  # 0 for internal vertices
        self.leaf_ids: list[list[int]] = [[]]  # rank -> original string ids; [0] unused

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_ids) - 1

    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    def _new_vertex(self, parent: int, strlen: int) -> int:
        self.parent.append(parent)
        self.strlen.append(strlen)
        self.children.append({})
        self.l_rank.append(0)
        self.r_rank.append(0)
        self.sample.append(-1)
        self.leaf_rank.append(0)
        return len(self.parent) - 1

    def is_leaf(self, v: int) -> bool:
        return self.leaf_rank[v] > 0

    def usable_len(self, v: int) -> int:
        """Length of str(v) without any trailing terminator."""
        return self.strlen[v] - 1 if self.is_leaf(v) else self.strlen[v]

    def leaf_range(self, v: int) -> tuple[int, int]:
        return self.l_rank[v], self.r_rank[v]

    def skip_interval(self, v: int) -> tuple[int, int]:
        """Half-open-below interval (|parent|, |v|]."""
        return self.strlen[self.parent[v]], self.strlen[v]

    def edge_symbol(self, v: int, pos: int, char_access) -> int:
        """Symbol at 1-based depth pos of str(v); the terminator for a leaf's
        final position."""
        if self.is_leaf(v) and pos == self.strlen[v]:
            return TERMINATOR
        return char_access(self.sample[v], pos)

    def locus_by_walk(self, pattern, char_access) -> int | None:
        """Minimum depth vertex whose string the pattern prefixes, walking
        edge labels character by character; None when there is no such vertex."""
        pattern = list(pattern)
        m = len(pattern)
        v = 0
        depth = 0
        while depth < m:
            child = self.children[v].get(pattern[depth])
            if child is None:
                return None
            end = min(self.strlen[child], m)
            for q in range(depth + 2, end + 1):
                if self.edge_symbol(child, q, char_access) != pattern[q - 1]:
                    return None
            v = child
            depth = self.strlen[child]
        return v


def build_from_sorted(keys: list[int], real_lens, lcps, ids_per_key) -> CompactTrie:
    """Core constructor from distinct strings already in lexicographic order.

    keys are opaque string ids used as `sample`s; real_lens[i] is the i-th
    string's length; lcps[i] is the longest common prefix with string i-1
    (lcps[0] ignored); ids_per_key[i] lists the original ids collapsed into
    leaf i. Edge first-symbols are filled in by the caller via attach_keys.
    """
    t = CompactTrie()
    stack = [0]  # vertices on the rightmost path
    for i, key in enumerate(keys):
        l = 0 if i == 0 else lcps[i]
        last = -1
        while t.strlen[stack[-1]] > l:
            last = stack.pop()
        top = stack[-1]
        if t.strlen[top] < l:
            mid = t._new_vertex(top, l)
            t.sample[mid] = t.sample[last]
            t.parent[last] = mid
            stack.append(mid)
            top = mid
        leaf = t._new_vertex(top, real_lens[i] + 1)
        t.sample[leaf] = key
        rank = i + 1
        t.leaf_rank[leaf] = rank
        t.leaf_ids.append(list(ids_per_key[i]))
        stack.append(leaf)

    # samples for internal vertices created before their subtree finished
    for v in range(t.num_vertices - 1, 0, -1):
        p = t.parent[v]
        if t.sample[p] == -1:
            t.sample[p] = t.sample[v]
    return t


def finalize(t: CompactTrie, char_access) -> CompactTrie:
    """Resolve edge keys and leaf rank ranges once characters are readable.

    Vertices are visited in creation order, which is lexicographic among
    siblings, so each child dict ends up ordered by symbol.
    """
    for child in range(1, t.num_vertices):
        parent = t.parent[child]
        key = t.edge_symbol(child, t.strlen[parent] + 1, char_access)
        t.children[parent][key] = child
    # children are strictly deeper than parents but may have smaller ids
    for v in sorted(range(t.num_vertices), key=lambda u: t.strlen[u], reverse=True):
        if t.is_leaf(v):
            t.l_rank[v] = t.r_rank[v] = t.leaf_rank[v]
        else:
            kids = t.children[v].values()
            t.l_rank[v] = min(t.l_rank[c] for c in kids)
            t.r_rank[v] = max(t.r_rank[c] for c in kids)
    return t


def build(strings, ids=None) -> tuple[CompactTrie, list]:
    """Compact trie over materialized symbol sequences ($ implied).

    Returns the trie plus the distinct sorted strings; `sample` values index
    into that list. Duplicate strings merge into one leaf with all their ids.
    """
    seqs = [tuple(s) for s in strings]
    if ids is None:
        ids = list(range(len(seqs)))
    groups: dict[tuple, list] = {}
    for s, i in zip(seqs, ids):
        groups.setdefault(s, []).append(i)
    distinct = sorted(groups)
    lcps = [0] * len(distinct)
    for i in range(1, len(distinct)):
        a, b = distinct[i - 1], distinct[i]
        l = 0
        for x, y in zip(a, b):
            if x != y:
                break
            l += 1
        lcps[i] = l
    t = build_from_sorted(
        list(range(len(distinct))),
        [len(s) for s in distinct],
        lcps,
        [groups[s] for s in distinct],
    )

    def char_access(sid: int, pos: int) -> int:
        return distinct[sid][pos - 1]

    finalize(t, char_access)
    return t, distinct
