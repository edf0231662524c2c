"""XML source + sink — the remaining row-framed interchange format next
to JSONL/CSV/TFRecord/Avro/SQLite, and the READ path for the big public
XML corpus dumps (MediaWiki exports ship Wikipedia as one element per
page; arXiv/PubMed OAI feeds are record elements too).

Write (engine-native layout): one file per input block — the JSONL sink
contract verbatim (content-keyed ``part-<sha1>.xml[.gz]`` names so
reruns overwrite byte-identically, tmp + ``os.replace`` atomic publish,
identical-block collision raise, post-publish stale-shard cleanup).
Rows serialize VECTORIZED — escaping and tag wrapping are pandas string
kernels over whole columns, one final concat per block; a ``schema``
attribute on the root pins each column's kind (int / float / bool / ts
/ str) and the sorted column order, so the read side reconstructs exact
dtypes where raw XML (all text) is lossy: int64 via string ints, floats
via repr (shortest-roundtrip — exact), bool via ``true``/``false``,
timestamps as exact integer epoch microseconds.  NULL = the element
is omitted.
Scalar columns only; list/bytes columns raise (use parquet/Avro).

Read: per-file parse tasks (``ElementTree`` — C-accelerated expat;
gzip by extension).  Files carrying the engine's ``schema`` attribute
roundtrip exactly.  FOREIGN XML (wiki dumps etc.) reads with
``record_tag`` + an optional ``fields`` mapping of column -> nested
element path (``{"title": "title", "text": "revision/text"}`` — the
MediaWiki shape), everything str, missing elements NULL.  Parsing is
per-record by nature (the WARC-source precedent: parse-bound ingest
formats pay per-record C-parser cost inside their read tasks, and the
task-per-file layout is what scales it)."""

from __future__ import annotations

import gzip
import hashlib
import os
import re
import xml.etree.ElementTree as ET

import numpy as np
import pandas as pd
import ray.data as rd


_ILLEGAL_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f]")


def _esc(s: pd.Series) -> pd.Series:
    """XML content escaping, vectorized (& first, then brackets; \r as
    a character reference — a literal \r is silently normalized to \n
    by every conforming parser, breaking the byte roundtrip).  C0
    control characters other than \t \n \r are ILLEGAL in XML 1.0
    even as references — loud raise (use parquet/Avro for binary-ish
    text)."""
    bad = s.str.contains(_ILLEGAL_XML, regex=True, na=False)
    if bool(bad.any()):
        raise ValueError(
            "write_xml_dataset: string value contains a C0 control "
            "character XML 1.0 cannot carry (even as a reference) — "
            "use parquet or Avro for this column"
        )
    return (
        s.str.replace("&", "&amp;", regex=False)
        .str.replace("<", "&lt;", regex=False)
        .str.replace(">", "&gt;", regex=False)
        .str.replace("\r", "&#13;", regex=False)
    )


def _column_kind(s: pd.Series, col: str) -> str:
    if pd.api.types.is_bool_dtype(s):
        return "bool"
    if pd.api.types.is_integer_dtype(s):
        return "int"
    if pd.api.types.is_float_dtype(s):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(s):
        return "ts"
    nonnull = s[s.notna()]
    if len(nonnull) == 0:
        raise ValueError(
            f"write_xml_dataset: column {col!r} has no non-null value in a "
            "block — no kind evidence (drop it or fill it)"
        )
    if isinstance(nonnull.iloc[0], str):
        return "str"
    raise ValueError(
        f"write_xml_dataset: column {col!r} holds "
        f"{type(nonnull.iloc[0]).__name__} — XML carries scalars only "
        "(int/float/bool/timestamp/str); use parquet or Avro for "
        "lists/bytes"
    )


def _render_column(s: pd.Series, kind: str) -> pd.Series:
    """Text for each value under its kind (exact-roundtrip forms)."""
    if kind == "bool":
        return s.map({True: "true", False: "false"}).astype(object)
    if kind == "int":
        mask = s.notna().to_numpy()
        vals = np.empty(len(s), dtype=object)
        vals[mask] = (
            s[s.notna()].astype("int64").astype(str).to_numpy(dtype=object)
        )
        return pd.Series(vals, index=s.index)
    if kind == "float":
        # repr(float(v)) — shortest roundtrip, exact on re-parse, and
        # stable across numpy versions (numpy 2 reprs scalars as
        # 'np.float64(0.5)')
        mask = s.notna().to_numpy()
        vals = np.empty(len(s), dtype=object)
        vals[mask] = [
            repr(float(v)) for v in s.to_numpy(dtype="float64")[mask]
        ]
        return pd.Series(vals, index=s.index)
    if kind == "ts":
        # integer microseconds since epoch: exact, parser-ambiguity-free
        us = s.to_numpy().astype("datetime64[us]").astype("int64")
        return pd.Series(us.astype(str), index=s.index)
    return _esc(s.astype(object).fillna("").astype(str)).astype(object)


def write_xml_dataset(
    ds: rd.Dataset,
    out_dir: str,
    *,
    record_tag: str = "record",
    root_tag: str = "records",
    compress: bool = False,
) -> list[str]:
    """Dataset -> XML shard files under the JSONL sink's directory
    contract (content-keyed idempotent names, atomic publish, collision
    raise, stale cleanup).  Returns the published file list."""
    os.makedirs(out_dir, exist_ok=True)
    schema = ds.schema()
    if schema is not None:
        # column names become element tags and schema-attr entries; an
        # XML-invalid name (':', whitespace, quotes, …) would write
        # malformed shards or break the read side's `item.split(':')`
        bad = [
            c
            for c in schema.names
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.\-]*", c)
        ]
        if bad:
            raise ValueError(
                "write_xml_dataset: column names must match "
                f"[A-Za-z_][A-Za-z0-9_.-]* to be valid XML tags; got {bad!r} "
                "— rename the columns before writing"
            )

    def write_block(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"path": pd.Series([], dtype=object)})
        cols = sorted(b.columns)
        kinds = {c: _column_kind(b[c], c) for c in cols}
        parts = pd.Series([f"  <{record_tag}>"] * len(b))
        for c in cols:
            rendered = _render_column(b[c], kinds[c]).reset_index(drop=True)
            cell = np.where(
                b[c].notna().to_numpy(),
                "<" + c + ">" + rendered.fillna("").to_numpy(dtype=object) + "</" + c + ">",
                "",
            )
            parts = parts + pd.Series(cell, dtype=object)
        parts = parts + f"</{record_tag}>"
        schema = ",".join(f"{c}:{kinds[c]}" for c in cols)
        payload = (
            f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<{root_tag} schema="{schema}">\n'
            + "\n".join(parts.tolist())
            + f"\n</{root_tag}>\n"
        ).encode("utf-8")
        key = hashlib.sha1(payload).hexdigest()[:16]
        path = os.path.join(
            out_dir, f"part-{key}.xml" + (".gz" if compress else "")
        )
        tmp = path + f".tmp-{os.getpid()}"
        with open(tmp, "wb") as out:
            out.write(gzip.compress(payload, mtime=0) if compress else payload)
        os.replace(tmp, path)
        return pd.DataFrame({"path": [path]})

    out = ds.map_batches(write_block, batch_format="pandas")
    paths = [
        p for b in out.iter_batches(batch_format="pandas") for p in b["path"]
    ]
    if len(paths) != len(set(paths)):
        raise ValueError(
            "write_xml_dataset: two byte-identical input blocks mapped to "
            "the same content-keyed shard (rows would be lost on a "
            "directory read) — repartition the input or add a "
            "distinguishing column"
        )
    keep = set(os.path.basename(p) for p in paths)
    for f in os.listdir(out_dir):
        if f.startswith("part-") and (
            f.endswith(".xml") or f.endswith(".xml.gz")
        ) and f not in keep:
            os.unlink(os.path.join(out_dir, f))
    return sorted(paths)


def _parse_engine_file(data: bytes, columns: list[str] | None) -> pd.DataFrame:
    root = ET.fromstring(data)
    schema = root.attrib.get("schema")
    if schema is None:
        raise ValueError(
            "XML file has no engine schema attribute — pass record_tag "
            "(and optionally fields) to read it as foreign XML"
        )
    kinds = dict(item.split(":") for item in schema.split(","))
    cols = [c for c in kinds if columns is None or c in columns]
    raw: dict[str, list] = {c: [] for c in cols}
    for rec in root:
        seen = {child.tag: child for child in rec}
        for c in cols:
            el = seen.get(c)
            raw[c].append(None if el is None else (el.text or ""))
    out = {}
    for c in cols:
        vals, kind = raw[c], kinds[c]
        if kind == "int":
            out[c] = pd.array(
                [None if v is None else int(v) for v in vals], dtype="Int64"
            )
        elif kind == "float":
            out[c] = np.array(
                [np.nan if v is None else float(v) for v in vals],
                dtype="float64",
            )
        elif kind == "bool":
            out[c] = pd.array(
                [None if v is None else v == "true" for v in vals],
                dtype="boolean",
            )
        elif kind == "ts":
            arr = np.array(
                [np.iinfo("int64").min if v is None else int(v) for v in vals],
                dtype="int64",
            ).astype("datetime64[us]")  # int64 min IS NaT
            out[c] = arr
        else:
            out[c] = pd.Series(
                [None if v is None else v for v in vals], dtype=object
            )
    df = pd.DataFrame(out)
    # ET already resolved entities in text nodes; nothing further needed
    if "Int64" in [str(df[c].dtype) for c in df.columns]:
        # columns without nulls downgrade to plain int64 (the parquet dtype)
        for c in df.columns:
            if str(df[c].dtype) == "Int64" and not df[c].isna().any():
                df[c] = df[c].astype("int64")
            if str(df[c].dtype) == "boolean" and not df[c].isna().any():
                df[c] = df[c].astype("bool")
    return df


def _parse_foreign_file(
    data: bytes,
    record_tag: str,
    fields: dict[str, str] | None,
    columns: list[str] | None,
) -> pd.DataFrame:
    root = ET.fromstring(data)
    # namespace-blind tag match (wiki dumps carry a default xmlns)
    def local(t: str) -> str:
        return t.rsplit("}", 1)[-1]

    recs = [el for el in root.iter() if local(el.tag) == record_tag]
    if fields is None:
        if not recs:
            return pd.DataFrame()
        fields = {
            local(ch.tag): local(ch.tag)
            for ch in recs[0]
            if len(ch) == 0
        }
    use = {
        c: path for c, path in fields.items()
        if columns is None or c in columns
    }
    raw: dict[str, list] = {c: [] for c in use}
    for rec in recs:
        for c, path in use.items():
            cur = rec
            found = True
            for step in path.split("/"):
                nxt = None
                for ch in cur:
                    if local(ch.tag) == step:
                        nxt = ch
                        break
                if nxt is None:
                    found = False
                    break
                cur = nxt
            raw[c].append(cur.text if found else None)
    return pd.DataFrame({c: pd.Series(v, dtype=object) for c, v in raw.items()})


def read_xml(
    paths: list[str] | str,
    *,
    record_tag: str | None = None,
    fields: dict[str, str] | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """XML files -> Dataset, one parse task per file.  Engine-written
    files (root ``schema`` attribute) reconstruct exact dtypes; foreign
    XML needs ``record_tag`` (namespace-blind local-name match) and
    reads every mapped field as str — ``fields`` maps output columns to
    nested element paths, defaulting to the first record's leaf
    children.  ``columns`` prunes inside the parse task."""
    if isinstance(paths, str):
        if os.path.isdir(paths):
            paths = sorted(
                os.path.join(paths, f)
                for f in os.listdir(paths)
                if f.endswith(".xml") or f.endswith(".xml.gz")
            )
        else:
            paths = [paths]
    if not paths:
        raise ValueError("read_xml: no input files")

    files = rd.read_binary_files(paths, include_paths=True)

    def parse(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for path, data in zip(b["path"], b["bytes"]):
            blob = bytes(data)
            # Ray's binary reader may already have inflated by extension
            # — decompress only on the gzip magic, not the name
            if blob[:2] == b"\x1f\x8b":
                blob = gzip.decompress(blob)
            if record_tag is None:
                frames.append(_parse_engine_file(blob, columns))
            else:
                frames.append(
                    _parse_foreign_file(blob, record_tag, fields, columns)
                )
        out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
        return out

    return files.map_batches(parse, batch_format="pandas")
