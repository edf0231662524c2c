"""Sources / ingest (SURVEY.md §2.1 S1-S6)."""
