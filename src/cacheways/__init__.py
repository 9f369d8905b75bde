"""Compiler-guided last-level-cache way partitioning, simulated.

The library walks the whole pipeline: static analysis of normalized loop
nests (footprint, reuse distance, stream/reuse class), a linear phase-timing
model, way-sensitivity probing, fractional apportioning of cache ways into
contiguous Class-of-Service partitions, and a deterministic trace-driven
simulator that plays process mixes under guided and baseline policies.
Import each name from its module: `cacheways.loops`, `cacheways.timing`,
`cacheways.sensitivity`, `cacheways.apportion`, `cacheways.simulate`,
`cacheways.metrics`, `cacheways.formats` and `cacheways.errors`.
"""

__version__ = "0.1.0"
