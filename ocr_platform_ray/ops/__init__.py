"""Relational + training-data operators (SURVEY.md §2.4-2.7 and the
large-scale pipeline extensions: dedup, similarity search, text analysis)."""

from .relational import (  # noqa: F401
    auto_group_agg,
    auto_join,
    explain_routes,
    grouped_top_k,
    grouped_percentile_exact,
    grouped_mode,
    grouped_first_last,
    grouped_string_agg,
    grouping_sets_agg,
    unpivot_columns,
    explode_list_column,
    cube_agg,
    probe_head,
    broadcast_hash_join,
    bucketed_hash_join,
    native_join,
    sharded_group_agg,
    stratified_sample,
    asof_join,
    semi_join,
    anti_join,
    top_k,
    paginate,
    distinct_sorted,
    pre_aggregate,
)
from .dedup import (  # noqa: F401
    dup_clusters_distributed,
    exact_dedup,
    minhash_lsh_duplicates,
    simhash_buckets,
    simhash_near_dup_pairs,
    ngram_containment_pairs,
    ngram_jaccard_pairs,
    embedding_cosine_pairs,
    dup_clusters,
    dedup_keep_representatives,
    repeated_paragraphs,
    strip_repeated_paragraphs,
)
from .textstats import (  # noqa: F401
    add_script_ratios,
    add_text_stats,
    dedup_doc_lines,
    add_repetition_stats,
    langid_scores,
    doc_fingerprint,
    token_document_frequency,
)
from .pack import range_prefix_sum, pack_sequences  # noqa: F401
from .chunks import grouped_ordered_concat, sliding_token_windows  # noqa: F401
from .lm import ngram_lm_scores  # noqa: F401
from .mix import temperature_sample, token_budget_sample, weighted_source_mixture  # noqa: F401
from .shuffle import (  # noqa: F401
    epoch_shuffle,
    grouped_sample_k,
    grouped_weighted_sample_k,
    shuffle_hash,
    weighted_sample_k,
)
from .decontam import contamination_counts  # noqa: F401
from .interval import coalesce_intervals, interval_join  # noqa: F401
from .similarity import (  # noqa: F401
    build_ivf_pq_index,
    knn_ivf_pq,
    knn_pq,
    pq_encode,
    train_pq,
    knn_brute_force,
    knn_ivf,
    knn_join,
    knn_lsh,
    train_ivf_centroids,
)
from .windows import (  # noqa: F401
    densify_buckets,
    global_row_number,
    grouped_cumsum,
    grouped_max_streak,
    grouped_decay_window,
    grouped_fill,
    grouped_ntile,
    grouped_rank,
    grouped_rolling_agg,
    grouped_rolling_rows,
    hopping_window_agg,
    sessionize,
    time_bucket_agg,
)
from .fuzzy import fuzzy_join_lev, levenshtein  # noqa: F401
from .colocated import colocated_join, partition_by_key  # noqa: F401
from .sketch import (  # noqa: F401
    approx_distinct,
    approx_distinct_by,
    count_min_build,
    count_min_join_size,
    count_min_query,
    hll_set_estimates,
    grouped_quantile_sketch,
    heavy_hitters,
    merge_sketches,
    sketch_from_values,
    sketch_quantile,
)
from .search import bm25_topk  # noqa: F401
from .cluster import kmeans_fit, pca_fit, pca_transform, semdedup  # noqa: F401
from .profile import (  # noqa: F401
    dataset_profile,
    grouped_autocorr,
    grouped_cat_entropy,
    grouped_corr,
    grouped_gini,
    grouped_histogram,
    grouped_linreg,
    grouped_mad_outliers,
    grouped_moments,
    grouped_scale,
    grouped_trimmed_mean,
    grouped_winsorize,
    key_skew_profile,
    welch_t_test,
)
from .c4 import c4_clean, c4_span_dedup  # noqa: F401
from .dsir import dsir_fit, dsir_log_weights, dsir_resample  # noqa: F401
from .classifier import logreg_fit, logreg_score  # noqa: F401
from .bpe_train import bpe_train_distributed, word_histogram  # noqa: F401
from .incremental import (  # noqa: F401
    committed_ingests,
    compact_bucket_state,
    incremental_exact_dedup,
    incremental_minhash_dedup,
)
from .layout import (  # noqa: F401
    bloom_lookup_plan,
    bloom_pruned_lookup,
    build_bloom_manifest,
    cluster_write,
    compact_parquet_dir,
    cluster_write_str,
    clustered_merge_join,
    hive_plan,
    hive_pruned_read,
    hive_write,
    prefix_pruned_read,
    pruned_read,
    zorder_pruned_read,
    zorder_write,
)
from .upsert import (  # noqa: F401
    delete_keys,
    merge_into,
    read_merge_target,
    vacuum_versions,
    versioned_merge_into,
    versioned_read,
    versioned_write_target,
    write_merge_target,
)
from .graph import (  # noqa: F401
    bfs_distances,
    clustering_coefficient,
    connected_components,
    extract_anchor_texts,
    extract_host_links,
    hits,
    kcore_subgraph,
    pagerank,
    triangle_count,
)
from .softmax import (  # noqa: F401
    langid_fit,
    langid_predict,
    softmax_fit,
    softmax_predict,
)
from .split import leakage_free_split  # noqa: F401
from .diff import diff_summary, snapshot_diff  # noqa: F401
from .drift import cusum_changepoint, js_divergence, token_divergence  # noqa: F401
from .validate import benford_audit, check_expectations, enforce_expectations  # noqa: F401
from .eval import (  # noqa: F401
    calibration_buckets,
    cohens_kappa,
    confusion_matrix,
    pr_curve,
    roc_auc,
)
from .pareto import pareto_frontier  # noqa: F401
from .markov import grouped_transitions  # noqa: F401
from .cohort import cohort_retention  # noqa: F401
from .assoc import pair_cooccurrence  # noqa: F401
from .colloc import pmi_bigrams  # noqa: F401
from .frontier import politeness_order  # noqa: F401
from .golden import golden_record  # noqa: F401
from .selection import token_chi2  # noqa: F401
from .nb import nb_fit, nb_predict  # noqa: F401
from .linkage import fs_fit, fs_score  # noqa: F401
from .augment import t5_span_corrupt  # noqa: F401
from .card import dataset_card  # noqa: F401
from .boilerplate import (  # noqa: F401
    extract_html_meta,
    extract_main_content,
    split_sections,
    text_tiling,
)
from .drift import grouped_trend, ks_two_sample  # noqa: F401
from .profile import cat_association, grouped_skewkurt  # noqa: F401
from .eval import bleu_corpus, isotonic_calibration, rouge_n  # noqa: F401
from .graph import (  # noqa: F401
    label_propagation_communities,
    link_prediction_scores,
)
from .search import rrf_fuse  # noqa: F401
from .textstats import heaps_fit, zipf_fit  # noqa: F401
from .mix import ipf_balance  # noqa: F401
from .er import resolve_entities  # noqa: F401
from .search import bm25_multi_topk, mine_hard_negatives, ql_topk  # noqa: F401
from .survival import kaplan_meier  # noqa: F401
from .cdc import content_defined_chunks  # noqa: F401
from .search import rm3_expand  # noqa: F401
from .profile import grouped_bootstrap_ci  # noqa: F401
from .sketch import hll_cumulative_distinct  # noqa: F401
