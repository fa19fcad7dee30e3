"""Two-pass empirical Huffman coding of joint quantizer indices.

Pass one tallies the observed joint symbols; pass two builds a Huffman code
on that histogram and charges each step its codeword length.  The code is
built by the two-queue method: leaves sorted by (count, symbol), merged
nodes appended in creation order.  At equal counts a leaf merges before a
merged node and earlier nodes before later ones, which is the order of a
heap keyed by (count, insertion order) over symbols pre-sorted ascending.
So the code lengths are deterministic for a given histogram, and equal per
symbol to those of that heap construction.
"""

import numpy as np


def huffman_lengths(counts):
    """Codeword length per symbol for a count histogram (dict symbol -> count)."""
    if not counts:
        return {}
    if len(counts) == 1:
        (sym,) = counts
        return {sym: 1}
    syms = sorted(counts)
    n = len(syms)
    weight = [counts[s] for s in syms] + [0] * (n - 1)
    leaves = sorted(range(n), key=weight.__getitem__)  # stable: ties by symbol
    parent = [0] * (2 * n - 1)
    i, j = 0, n  # heads of the leaf queue and of the merged-node queue
    for node in range(n, 2 * n - 1):
        for _ in range(2):
            if i < n and (j == node or weight[leaves[i]] <= weight[j]):
                child = leaves[i]
                i += 1
            else:
                child = j
                j += 1
            parent[child] = node
            weight[node] += weight[child]
    depth = [0] * (2 * n - 1)  # the root, node 2n-2, has depth 0
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return dict(zip(syms, depth))


def histogram_of_rows(idx):
    """Counts of distinct rows of an integer (n, r) array, keyed by tuple.

    Keys come in ascending lexicographic order, as from ``np.unique(axis=0)``;
    zero-width rows all share the key ().
    """
    if idx.shape[0] == 0:
        return {}
    rows = idx[np.lexsort(idx.T[::-1])] if idx.shape[1] else idx
    starts = np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1
    bounds = np.concatenate(([0], starts, [rows.shape[0]]))
    keys = map(tuple, rows[bounds[:-1]].tolist())
    return dict(zip(keys, np.diff(bounds).tolist()))


def empirical_entropy_bits(counts):
    total = sum(counts.values())
    if total == 0:
        return 0.0
    p = np.array(list(counts.values()), dtype=float) / total
    return float(-(p * np.log2(p)).sum())


def average_code_length(counts, lengths):
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return sum(counts[s] * lengths[s] for s in counts) / total
