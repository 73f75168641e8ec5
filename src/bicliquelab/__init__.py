"""bicliquelab: exact verification workbench for biclique partitions,
t-covers, and clique-vs-independent-set reductions.

The package constructs an explicit graph family whose chromatic number
outgrows its biclique partition number, and mechanically checks, at desk
scale, every finite construction and inequality that claim rests on:
the 30-subcube decomposition driving the construction, the explicit
partition itself, t-covers of OR powers, the exact rational counting bound
for t-covers of complete graphs, and both reductions to the
clique-vs-independent-set communication problem.
"""
