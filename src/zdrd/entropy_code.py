"""Two-pass empirical Huffman coding of joint quantizer indices.

Pass one tallies the observed joint symbols; pass two builds a Huffman code
on that histogram and charges each step its codeword length.  A histogram
is an int64 array of counts, one per distinct symbol (an index row), in
ascending row order; :func:`count_rows` gives the rows themselves in the
same order.  The code is built by the two-queue method: leaves sorted by
(count, symbol), merged nodes appended in creation order.  At equal counts
a leaf merges before a merged node and earlier nodes before later ones,
which is the order of a heap keyed by (count, insertion order) over symbols
pre-sorted ascending.  So the code lengths are deterministic for a given
histogram, and equal per symbol to those of that heap construction.
"""

import numpy as np


def huffman_lengths(counts):
    """Codeword length of each symbol of a histogram, as int64 in its order."""
    n = len(counts)
    if n < 2:
        return np.ones(n, dtype=np.int64)
    weight = counts.tolist() + [0] * (n - 1)
    leaves = np.argsort(counts, kind="stable").tolist()  # ties by symbol
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
    return np.array(depth[:n], dtype=np.int64)


def count_rows(idx, counts=None):
    """Distinct rows of an integer (m, r) array and their counts, as arrays.

    Rows come in ascending lexicographic order, as from ``np.unique(axis=0)``;
    zero-width rows all share one empty row.  Row i counts ``counts[i]``
    times (int64; once each by default), so the counts of the pieces of a
    run merge by counting their distinct rows stacked, with their counts.
    """
    if counts is None:
        counts = np.ones(idx.shape[0], dtype=np.int64)
    if idx.shape[0] == 0:
        return idx, counts
    if idx.shape[1]:
        order = np.lexsort(idx.T[::-1])
        idx, counts = idx[order], counts[order]
    starts = np.flatnonzero(np.concatenate(([True], np.any(idx[1:] != idx[:-1], axis=1))))
    return idx[starts], np.add.reduceat(counts, starts)


def histogram_of_rows(idx, counts=None):
    """The counts of :func:`count_rows`: a histogram in ascending row order."""
    return count_rows(idx, counts)[1]


class RowCounts:
    """Counts of the distinct rows of an integer array that arrives in pieces.

    Pieces wait until they hold as many rows as the distinct rows merged so
    far, then merge with them by :func:`count_rows`.  So the counts take
    memory in proportion to the alphabet and the last pieces, and merging
    costs, in all, about one sort of the rows, even when most rows differ.
    """

    def __init__(self, r):
        self.keys = np.empty((0, r), dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)
        self._pending = []
        self._rows = 0

    def add(self, rows):
        """Count the rows of an integer (m, r) array; they are copied."""
        self._pending.append(np.array(rows, dtype=np.int64))
        self._rows += len(rows)
        if self._rows >= len(self.keys):
            self.keys, self.counts = count_rows(*self._stacked())
            self._pending, self._rows = [], 0

    def histogram(self):
        """Every row counted so far, as :func:`histogram_of_rows` gives it."""
        return histogram_of_rows(*self._stacked())

    def _stacked(self):
        ones = np.ones(self._rows, dtype=np.int64)
        return np.concatenate([self.keys, *self._pending]), np.concatenate((self.counts, ones))


def empirical_entropy_bits(counts):
    """Plug-in entropy of a histogram, in bits."""
    total = int(counts.sum())
    if total == 0:
        return 0.0
    p = counts / total
    return float(-(p * np.log2(p)).sum())
