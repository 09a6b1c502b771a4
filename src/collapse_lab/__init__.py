"""Strong-collapse laboratory for sparse random clique complexes.

Graph-native throughout: complexes are represented by their 1-skeletons, and
every statistic of the clique complex is derived from the graph.
"""

import os

# No module of the package makes a BLAS call, so OpenBLAS needs no worker
# threads. It reads the variable once, when numpy loads it, and no module here
# imports numpy before this line; a value set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
