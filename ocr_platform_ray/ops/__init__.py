"""Relational + training-data operators (SURVEY.md §2.4-2.7 and the
large-scale pipeline extensions: dedup, similarity search, text analysis)."""
