"""Fairness evaluation for face-recognition embeddings.

The package measures identity- and attribute-level disparities of a
verification system operating at a fixed overall false-positive rate, and
ships a desk-scale training core for a feature-mixing debias adapter so the
measurement tools have something whose bias they can watch shrink.
"""

__version__ = "0.1.0"
