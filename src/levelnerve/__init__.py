"""levelnerve: symplectic level structures on surfaces at desk scale.

Exact, deterministic combinatorics: symplectic modules over Z/m, surface
group presentations and twist actions, finite covers and their homology,
stable-graph decompositions with frames, and nerve complexes.  Pure
standard library; no floating point.
"""

__version__ = "0.1.0"
