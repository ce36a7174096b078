#include "index/sharded_index.h"

#include <algorithm>
#include <thread>

#include "index/analyzer.h"
#include "index/merge.h"
#include "util/hash.h"
#include "util/logging.h"

namespace deepsurf {
namespace index {

ShardedIndex::ShardedIndex(ShardedIndexOptions options)
    : options_(options) {
  size_t n = std::max<size_t>(1, options_.num_shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Global suppression (AddDocumentLocked) decides duplicates before a
    // shard ever sees the document, so each shard's own suppression
    // never fires.
    shards_.push_back(std::make_unique<InvertedIndex>(options_.index));
  }
  local_to_global_.resize(n);
  if (options_.parallel_search && n > 1) {
    pool_workers_.reserve(n - 1);
    for (size_t s = 1; s < n; ++s) {
      pool_workers_.emplace_back(&ShardedIndex::PoolWorkerLoop, this, s);
    }
  }
}

ShardedIndex::~ShardedIndex() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : pool_workers_) t.join();
}

void ShardedIndex::PoolWorkerLoop(size_t shard) {
  uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(pool_mu_);
    pool_cv_.wait(lock,
                  [&] { return pool_stop_ || pool_generation_ != seen; });
    if (pool_stop_) return;
    seen = pool_generation_;
    const auto* terms = pool_terms_;
    size_t k = pool_k_;
    const CorpusStats* stats = pool_stats_;
    auto* out = pool_out_;
    lock.unlock();
    // Safe without mu_: the job submitter holds mu_ (shared) for the
    // whole broadcast, which excludes ingest.
    (*out)[shard] = shards_[shard]->SearchTermsScored(*terms, k, stats);
    lock.lock();
    if (--pool_pending_ == 0) pool_done_cv_.notify_one();
  }
}

void ShardedIndex::RunPoolJob(
    const std::vector<std::string>& terms, size_t k, const CorpusStats& stats,
    std::vector<std::vector<SearchHit>>* per_shard) const {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_terms_ = &terms;
    pool_k_ = k;
    pool_stats_ = &stats;
    pool_out_ = per_shard;
    pool_pending_ = shards_.size() - 1;
    ++pool_generation_;
  }
  pool_cv_.notify_all();
  (*per_shard)[0] = shards_[0]->SearchTermsScored(terms, k, &stats);
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_done_cv_.wait(lock, [&] { return pool_pending_ == 0; });
}

size_t ShardedIndex::ShardForUrl(const std::string& url) const {
  return Fnv1a64(url) % shards_.size();
}

Result<DocId> ShardedIndex::AddDocumentLocked(const Document& d,
                                              bool* added) {
  *added = false;
  uint64_t content_hash = Fnv1a64(d.body);
  auto dup = by_hash_.find(content_hash);
  if (dup != by_hash_.end()) return Result<DocId>(dup->second);
  size_t s = ShardForUrl(d.url);
  size_t before = shards_[s]->num_docs();
  auto local = shards_[s]->AddDocument(d.url, d.title, d.body, d.is_deep_web,
                                       d.source_host);
  if (!local.ok()) return local.status();
  if (shards_[s]->num_docs() == before) {
    // Shard-local duplicate (the global map would have caught it, so
    // this is belt-and-braces).
    return Result<DocId>(local_to_global_[s][*local]);
  }
  DocId global = static_cast<DocId>(global_docs_.size());
  global_docs_.push_back(DocRef{static_cast<uint32_t>(s), *local});
  local_to_global_[s].push_back(global);
  by_hash_.emplace(content_hash, global);
  *added = true;
  return Result<DocId>(global);
}

Result<DocId> ShardedIndex::AddDocument(const std::string& url,
                                        const std::string& title,
                                        const std::string& body,
                                        bool is_deep_web,
                                        const std::string& source_host) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  bool added = false;
  return AddDocumentLocked(Document{url, title, body, is_deep_web,
                                    source_host},
                           &added);
}

Result<size_t> ShardedIndex::InsertBatch(const std::vector<Document>& docs,
                                         std::vector<bool>* newly_added) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (newly_added != nullptr) newly_added->assign(docs.size(), false);
  size_t added_count = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    bool added = false;
    auto id = AddDocumentLocked(docs[i], &added);
    if (!id.ok()) return id.status();
    if (added) {
      ++added_count;
      if (newly_added != nullptr) (*newly_added)[i] = true;
    }
  }
  return added_count;
}

std::vector<SearchHit> ShardedIndex::Search(const std::string& query,
                                            size_t k) const {
  return SearchTerms(ContentTokens(query), k);
}

std::vector<SearchHit> ShardedIndex::SearchTerms(
    const std::vector<std::string>& terms, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return SearchTermsLocked(terms, k);
}

std::vector<SearchHit> ShardedIndex::SearchTermsLocked(
    const std::vector<std::string>& terms, size_t k) const {
  if (terms.empty() || global_docs_.empty() || k == 0) return {};

  // Corpus-wide statistics summed over the shards. Exact integer sums:
  // they equal what one InvertedIndex over the whole corpus would
  // compute. (A few hash probes per shard per query; an ingest-time
  // df map would only make ingest tokenize every document twice.)
  CorpusStats stats;
  stats.term_df.assign(terms.size(), 0);
  for (const auto& shard : shards_) {
    stats.num_docs += static_cast<double>(shard->num_docs());
    stats.total_length += shard->total_content_length();
    for (size_t t = 0; t < terms.size(); ++t) {
      stats.term_df[t] += shard->DocFrequency(terms[t]);
    }
  }

  // Per-shard top-k. A document's shard-local id order equals its global
  // id order (both are insertion order), so each shard's (score desc,
  // local id asc) top-k contains every document of the global top-k that
  // lives there.
  std::vector<std::vector<SearchHit>> per_shard(shards_.size());
  std::unique_lock<std::mutex> pool_claim(pool_busy_mu_, std::defer_lock);
  if (!pool_workers_.empty()) pool_claim.try_lock();
  if (pool_claim.owns_lock()) {
    RunPoolJob(terms, k, stats, &per_shard);
  } else {
    // No pool, or another query holds it: scan on the calling thread.
    for (size_t s = 0; s < shards_.size(); ++s) {
      per_shard[s] = shards_[s]->SearchTermsScored(terms, k, &stats);
    }
  }

  // Exact merge on global ids (shared with the remote coordinator).
  std::vector<SearchHit> merged;
  for (size_t s = 0; s < shards_.size(); ++s) {
    AppendGlobalHits(per_shard[s], local_to_global_[s], &merged);
  }
  return MergeTopK(std::move(merged), k);
}

DocInfo ShardedIndex::doc(DocId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  DS_CHECK(id < global_docs_.size()) << "doc id out of range";
  const DocRef& ref = global_docs_[id];
  return shards_[ref.shard]->doc(ref.local);
}

const DocInfo& ShardedIndex::doc_ref(DocId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  DS_CHECK(id < global_docs_.size()) << "doc id out of range";
  const DocRef& ref = global_docs_[id];
  return shards_[ref.shard]->doc_ref(ref.local);
}

size_t ShardedIndex::num_docs() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return global_docs_.size();
}

uint64_t ShardedIndex::ingest_epoch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return global_docs_.size();
}

IndexMemoryUsage ShardedIndex::MemoryUsage() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  IndexMemoryUsage total;
  for (const auto& shard : shards_) total.Add(shard->MemoryUsage());
  return total;
}

SearchStats ShardedIndex::search_stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SearchStats total;
  for (const auto& shard : shards_) total.Add(shard->search_stats());
  return total;
}

bool ShardedIndex::ContainsContent(uint64_t content_hash) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_hash_.count(content_hash) > 0;
}

}  // namespace index
}  // namespace deepsurf
