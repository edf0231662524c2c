"""Scalar function library (SURVEY.md §2.2 M6-M17).

Pure, deterministic functions usable standalone or vectorized inside
``map_batches`` stages.
"""
