"""Counting Bloom filters.

Re-implementation of the summaries behind the paper's BLOOM baseline
(Broder & Mitzenmacher [5]): each node maintains a *counting* Bloom filter
of the joining attributes in its window (counters support the deletions a
sliding window needs), ships it to remote sites, and remote sites test
arriving tuples for membership before forwarding.
"""

from repro.bloom.counting import CountingBloomFilter

__all__ = ["CountingBloomFilter"]
