"""Strong-collapse laboratory for sparse random clique complexes.

Graph-native throughout: complexes are represented by their 1-skeletons, and
every statistic of the clique complex is derived from the graph.
"""
