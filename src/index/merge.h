// Copyright 2026 The deepsurf Authors.
//
// The exact "many shards, one ranking" merge shared by every layer that
// partitions a corpus and must still rank as if it were one index: the
// in-process ShardedIndex and the remote serving coordinator
// (remote/coordinator.*). Keeping it in one place is what keeps the two
// implementations byte-identical — there is exactly one definition of
// the global top-k merge order, so they cannot drift apart.
//
// The merge is a total order (score descending, global doc id
// ascending) with no floating-point arithmetic of its own. It is exact
// as long as every shard scored with the corpus-wide BM25 statistics;
// each implementation supplies those (ShardedIndex sums its shards per
// query, the coordinator keeps them at ingest).

#ifndef DEEPSURF_INDEX_MERGE_H_
#define DEEPSURF_INDEX_MERGE_H_

#include <algorithm>
#include <vector>

#include "index/search_index.h"

namespace deepsurf {
namespace index {

/// Appends one shard's local-id hits as global-id merge candidates.
inline void AppendGlobalHits(const std::vector<SearchHit>& local,
                             const std::vector<DocId>& local_to_global,
                             std::vector<SearchHit>* out) {
  for (const auto& hit : local) {
    out->push_back(SearchHit{local_to_global[hit.doc], hit.score});
  }
}

/// The exact global merge: (score descending, global doc id ascending),
/// truncated to k. Correct whenever each shard contributed its own
/// top-k, because a document's local-id order equals its global-id order
/// (both are insertion order), so every member of the global top-k is in
/// its home shard's top-k.
inline std::vector<SearchHit> MergeTopK(std::vector<SearchHit> candidates,
                                        size_t k) {
  std::sort(candidates.begin(), candidates.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

}  // namespace index
}  // namespace deepsurf

#endif  // DEEPSURF_INDEX_MERGE_H_
