#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "index/analyzer.h"
#include "index/bitpack_codec.h"
#include "util/hash.h"
#include "util/logging.h"

namespace deepsurf {
namespace index {

namespace {

/// BM25's term-frequency saturation (k1) and length normalization (b).
constexpr double kBm25K1 = 1.2;
constexpr double kBm25B = 0.75;

/// One query term's score contribution to one document. Both the
/// exhaustive and the maxscore path call exactly this expression, so a
/// candidate's score is bit-for-bit the same however it was computed.
inline double Contribution(double idf, double tf, double norm, double k1) {
  return idf * (tf * (k1 + 1.0)) / (tf + norm);
}

/// Conservative round-up for score bounds: the handful of floating-point
/// operations behind a bound can each err by ~1 ulp (relative 2^-52);
/// a relative 1e-9 margin dwarfs that while costing effectively no
/// pruning power. Bounds are nonnegative.
inline double RoundUp(double x) { return x * (1.0 + 1e-9); }

/// The ranking order: score descending, doc id ascending. Total, so any
/// correct selection of the top k is unique.
inline bool Better(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// First index >= `from` in span[0, n) with span[idx] >= target
/// (galloping then binary search, so a DAAT cursor advances within its
/// decoded window in O(log gap) rather than O(gap)).
size_t GallopTo(const DocId* span, size_t n, size_t from, DocId target) {
  if (from >= n || span[from] >= target) return from;
  size_t lo = from;
  size_t step = 1;
  while (lo + step < n && span[lo + step] < target) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(n, lo + step + 1);
  return static_cast<size_t>(std::lower_bound(span + lo + 1, span + hi,
                                              target) -
                             span);
}

/// Deep-k fallback factor of the exhaustive-vs-maxscore routing (see
/// IndexOptions::pruning_min_postings): a query goes to the exhaustive
/// scan when k * resolved terms * this factor reaches its candidate pool.
constexpr size_t kPruningKFallback = 1024;

/// Below this many resolved query terms the exhaustive scan is used
/// whatever the pool: maxscore over one list has no non-essential list
/// to skip, and its cursor machinery loses to the scan's flat walk.
constexpr size_t kPruningMinTerms = 2;

/// Decodes sealed block `b` of a compressed list into `out` (room for
/// `block_size` ids); its gaps chain from the previous block's last doc
/// id. The only place sealed bytes become doc ids. (Templated on the
/// list type so these file-local helpers can take the private
/// PostingList by deduction.)
template <typename PL>
void DecodeSealedBlock(const PL& pl, size_t b, size_t block_size,
                       DocId* out) {
  const uint8_t* data = pl.packed.data();
  const uint8_t* end = b + 1 < pl.blocks.size()
                           ? data + pl.blocks[b + 1].offset
                           : data + pl.packed.size();
  const DocId base = b == 0 ? 0 : pl.blocks[b - 1].last_doc;
  DS_CHECK(DecodeBitpackBlock(data + pl.blocks[b].offset, end, block_size,
                              base, out) != 0)
      << "corrupt sealed posting block";
}

/// Per-thread working memory of the exhaustive scan, reused by every
/// query the thread runs on any index. `acc` covers the largest index
/// the thread has searched and is all zeros between queries (a query
/// zeroes exactly the entries it touched); `touched` lists the
/// documents the current query scored; `block` receives the sealed-block
/// decodes SealedBlockIds does not pin.
struct ExhaustiveScratch {
  std::vector<double> acc;
  std::vector<DocId> touched;
  std::vector<DocId> block;
};

}  // namespace

// ---------------------------------------------------------------------
// PostingCursor.

void InvertedIndex::PostingCursor::Init(const InvertedIndex* idx,
                                        const PostingList* list) {
  pl = list;
  owner = idx;
  block_size = static_cast<uint32_t>(idx->options_.posting_block_size);
  compressed = idx->options_.compress_postings;
  pos = 0;
  decoded = 0;
  skipped = 0;
  cache_hits = 0;
  stale = false;
  LoadSegment(0);
}

void InvertedIndex::PostingCursor::LoadSegment(uint32_t segment) {
  seg = segment;
  const uint32_t nblocks = static_cast<uint32_t>(pl->blocks.size());
  if (segment < nblocks) {
    win_begin = segment * block_size;
    win_end = win_begin + block_size;
    if (compressed) {
      bool hit = false;
      window = owner->SealedBlockIds(*pl, segment, &scratch, &hit);
      hit ? ++cache_hits : ++decoded;
    } else {
      ++decoded;
      window = pl->docs.data() + win_begin;
    }
  } else {
    // The unsealed tail: raw ids in both modes (compressed lists keep
    // only the tail in `docs`).
    win_begin = nblocks * block_size;
    win_end = pl->count;
    window = compressed ? pl->docs.data() : pl->docs.data() + win_begin;
  }
}

float InvertedIndex::PostingCursor::SegMaxWeight() const {
  return seg < pl->blocks.size() ? pl->blocks[seg].max_weight
                                 : pl->tail_max_weight;
}

DocId InvertedIndex::PostingCursor::SegLastDoc() const {
  if (seg < pl->blocks.size()) return pl->blocks[seg].last_doc;
  return window[win_end - win_begin - 1];  // cursor in a non-empty tail
}

void InvertedIndex::PostingCursor::Next() {
  ++pos;
  if (pos >= win_end && pos < pl->count) LoadSegment(seg + 1);
}

void InvertedIndex::PostingCursor::EnsureLoaded() {
  if (!stale) return;
  stale = false;
  LoadSegment(seg);
  pos = win_begin + static_cast<uint32_t>(
                        GallopTo(window, win_end - win_begin, 0, pending));
}

void InvertedIndex::PostingCursor::SkipSegTo(DocId target) {
  if (AtEnd()) return;
  if (stale ? target <= pending : Doc() >= target) return;
  if (target <= SegLastDoc()) {
    if (stale) {
      pending = target;  // still this segment; defer the gallop too
    } else {
      pos = win_begin + static_cast<uint32_t>(GallopTo(
                window, win_end - win_begin, pos - win_begin, target));
    }
    return;
  }
  if (stale) {
    // Leaving the deferred landing segment without ever decoding it —
    // the whole point of the deferral.
    stale = false;
    ++skipped;
  }
  const uint32_t nblocks = static_cast<uint32_t>(pl->blocks.size());
  if (seg >= nblocks) {  // in the tail; target is past its last doc
    pos = pl->count;
    return;
  }
  const auto* first = pl->blocks.data() + seg + 1;
  const auto* last = pl->blocks.data() + nblocks;
  const auto* hit = std::lower_bound(
      first, last, target,
      [](const BlockMeta& b, DocId t) { return b.last_doc < t; });
  if (hit == last) {
    skipped += nblocks - seg - 1;
    pos = nblocks * block_size;
    if (pos >= pl->count) return;  // no tail: list exhausted
    LoadSegment(nblocks);          // the tail is raw — loading is free
    if (target > SegLastDoc()) {
      pos = pl->count;
      return;
    }
    pos = win_begin + static_cast<uint32_t>(
                          GallopTo(window, win_end - win_begin, 0, target));
    return;
  }
  const uint32_t b = static_cast<uint32_t>(hit - pl->blocks.data());
  skipped += b - seg - 1;
  if (compressed) {
    // Lazy landing: move the metadata, defer the decode. EnsureLoaded
    // pays it only if the caller actually reads this segment.
    seg = b;
    win_begin = b * block_size;
    win_end = win_begin + block_size;
    pos = win_begin;
    pending = target;
    stale = true;
  } else {
    pos = b * block_size;
    LoadSegment(b);
    pos = win_begin + static_cast<uint32_t>(
                          GallopTo(window, win_end - win_begin, 0, target));
  }
}

void InvertedIndex::PostingCursor::SeekTo(DocId target) {
  SkipSegTo(target);
  EnsureLoaded();
}

// ---------------------------------------------------------------------

const DocId* InvertedIndex::SealedBlockIds(const PostingList& pl, uint32_t b,
                                           std::vector<DocId>* scratch,
                                           bool* hit) const {
  if (b < pl.pinned_cap) {
    const DocId* p = pl.pinned[b].load(std::memory_order_acquire);
    if (p != nullptr) {
      *hit = true;
      return p;
    }
  }
  *hit = false;
  const size_t block = options_.posting_block_size;
  const int64_t cost = static_cast<int64_t>(block * sizeof(DocId));
  bool pin = false;
  if (b < pl.pinned_cap) {
    if (decode_cache_left_.fetch_sub(cost, std::memory_order_relaxed) >=
        cost) {
      pin = true;
    } else {
      decode_cache_left_.fetch_add(cost, std::memory_order_relaxed);
    }
  }
  DocId* buf;
  if (pin) {
    buf = new DocId[block];
  } else {
    scratch->resize(block);
    buf = scratch->data();
  }
  DecodeSealedBlock(pl, b, block, buf);
  if (!pin) return buf;
  const DocId* expected = nullptr;
  if (!pl.pinned[b].compare_exchange_strong(expected, buf,
                                            std::memory_order_release,
                                            std::memory_order_acquire)) {
    // A concurrent query published first; its decode is identical
    // (immutable input, deterministic codec), so adopt it.
    delete[] buf;
    decode_cache_left_.fetch_add(cost, std::memory_order_relaxed);
    return expected;
  }
  return buf;
}

void InvertedIndex::GrowPinnedLocked(PostingList* pl) {
  const uint32_t need = static_cast<uint32_t>(pl->blocks.size());
  if (need <= pl->pinned_cap) return;
  const uint32_t cap =
      std::max(need, pl->pinned_cap == 0 ? 4u : pl->pinned_cap * 2);
  // Value-initialized: every new slot starts null.
  auto grown = std::make_unique<std::atomic<const DocId*>[]>(cap);
  for (uint32_t i = 0; i < pl->pinned_cap; ++i) {
    grown[i].store(pl->pinned[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  pl->pinned = std::move(grown);
  pl->pinned_cap = cap;
}

// ---------------------------------------------------------------------

InvertedIndex::InvertedIndex(IndexOptions options)
    : options_(options) {
  if (options_.posting_block_size == 0) options_.posting_block_size = 128;
  decode_cache_left_.store(
      static_cast<int64_t>(options_.decode_cache_bytes),
      std::memory_order_relaxed);
}

Result<DocId> InvertedIndex::AddDocument(const std::string& url,
                                         const std::string& title,
                                         const std::string& body,
                                         bool is_deep_web,
                                         const std::string& source_host) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return AddDocumentLocked(url, title, body, is_deep_web, source_host);
}

Result<size_t> InvertedIndex::InsertBatch(const std::vector<Document>& docs,
                                          std::vector<bool>* newly_added) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (newly_added != nullptr) newly_added->assign(docs.size(), false);
  doc_lengths_.reserve(doc_lengths_.size() + docs.size());
  forward_.reserve(forward_.size() + docs.size());
  size_t added = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    const auto& d = docs[i];
    size_t before = docs_.size();
    auto id = AddDocumentLocked(d.url, d.title, d.body, d.is_deep_web,
                                d.source_host);
    if (!id.ok()) return id.status();
    if (docs_.size() > before) {
      ++added;
      if (newly_added != nullptr) (*newly_added)[i] = true;
    }
  }
  return added;
}

TermId InvertedIndex::InternLocked(const std::string& term) {
  auto [it, inserted] =
      dict_.emplace(term, static_cast<TermId>(term_names_.size()));
  if (inserted) {
    term_names_.push_back(term);
    postings_.emplace_back();
  }
  return it->second;
}

void InvertedIndex::AppendPostingLocked(PostingList* pl, DocId id, float w) {
  pl->docs.push_back(id);  // ids only grow, so lists stay ascending
  pl->weights.push_back(w);
  ++pl->count;
  if (w > pl->max_weight) pl->max_weight = w;
  if (w > pl->tail_max_weight) pl->tail_max_weight = w;
  const size_t block = options_.posting_block_size;
  if (pl->count - pl->blocks.size() * block < block) return;
  // The tail just filled a whole block: seal it. Lazy sealing at ingest
  // keeps the list append-only — queries racing through ShardedIndex
  // never observe a half-built block (ingest holds the writer lock).
  BlockMeta meta;
  meta.last_doc = pl->docs.back();
  meta.max_weight = pl->tail_max_weight;
  if (options_.compress_postings) {
    meta.offset = pl->packed.size();
    const DocId base = pl->blocks.empty() ? 0 : pl->blocks.back().last_doc;
    EncodeBitpackBlock(pl->docs.data(), block, base, &pl->packed);
    pl->docs.clear();
  }
  const uint32_t bidx = static_cast<uint32_t>(pl->blocks.size());
  pl->blocks.push_back(meta);
  if (options_.compress_postings && options_.decode_cache_bytes > 0) {
    GrowPinnedLocked(pl);
  }
  // Keep the impact order sorted (max_weight descending, index
  // ascending): one ordered insert per seal, amortized over block_size
  // appends.
  auto pos = std::upper_bound(
      pl->impact_order.begin(), pl->impact_order.end(), bidx,
      [pl](uint32_t a, uint32_t b) {
        const float wa = pl->blocks[a].max_weight;
        const float wb = pl->blocks[b].max_weight;
        if (wa != wb) return wa > wb;
        return a < b;
      });
  pl->impact_order.insert(pos, bidx);
  pl->tail_max_weight = 0.0f;
}

Result<DocId> InvertedIndex::AddDocumentLocked(const std::string& url,
                                               const std::string& title,
                                               const std::string& body,
                                               bool is_deep_web,
                                               const std::string& source_host) {
  uint64_t hash = Fnv1a64(body);
  auto dup = by_hash_.find(hash);
  if (dup != by_hash_.end()) return Result<DocId>(dup->second);
  DocId id = static_cast<DocId>(docs_.size());

  // Single pass over the tokens: intern each term and accumulate its
  // weight by dense id (body counts first, then title boosts — per-term
  // addition order is part of the scoring contract).
  auto body_tokens = ContentTokens(body);
  std::unordered_map<TermId, double> weights;
  weights.reserve(body_tokens.size());
  for (const auto& t : body_tokens) weights[InternLocked(t)] += 1.0;
  for (const auto& t : ContentTokens(title)) {
    weights[InternLocked(t)] += kTitleBoost;
  }

  DocInfo info;
  info.url = url;
  info.title = title;
  info.length = static_cast<uint32_t>(body_tokens.size());
  info.content_hash = hash;
  info.is_deep_web = is_deep_web;
  info.source_host = source_host;
  docs_.push_back(std::move(info));
  doc_lengths_.push_back(static_cast<float>(body_tokens.size()));
  total_length_ += static_cast<double>(body_tokens.size());
  if (body_tokens.size() < min_length_) {
    min_length_ = static_cast<uint32_t>(body_tokens.size());
  }

  std::vector<std::pair<TermId, float>> fwd;
  fwd.reserve(weights.size());
  for (const auto& [tid, w] : weights) {
    fwd.emplace_back(tid, static_cast<float>(w));
  }
  std::sort(fwd.begin(), fwd.end());  // by TermId; ids unique per doc
  for (const auto& [tid, w] : fwd) {
    PostingList& pl = postings_[tid];
    if (pl.weights.empty()) {
      pl.docs.reserve(4);
      pl.weights.reserve(4);
    }
    AppendPostingLocked(&pl, id, w);
  }
  forward_.push_back(std::move(fwd));
  by_hash_.emplace(hash, id);
  by_host_[source_host].push_back(id);
  return id;
}

std::shared_ptr<const InvertedIndex::NormCache> InvertedIndex::Norms(
    double avg_len, size_t total_postings) const {
  {
    std::lock_guard<std::mutex> lock(norm_mu_);
    if (norms_ != nullptr && norms_->avg_len == avg_len &&
        norms_->num_docs == docs_.size()) {
      return norms_;
    }
  }
  // Stale (or absent) cache: only pay the O(num_docs) rebuild for a
  // query whose postings volume amortizes it — otherwise the caller
  // scores inline from the length array (same float bits) and the cache
  // is left for a bigger query or a quieter index to build.
  if (total_postings * 8 < docs_.size()) return nullptr;
  // Build outside the lock so concurrent queries are never stalled
  // behind an O(num_docs) fill; racing builders produce identical
  // content for the same (avg_len, num_docs) key, so last-write-wins
  // is harmless.
  auto cache = std::make_shared<NormCache>();
  cache->avg_len = avg_len;
  cache->num_docs = docs_.size();
  cache->norm.resize(docs_.size());
  const double k1 = kBm25K1;
  const double b = kBm25B;
  for (size_t i = 0; i < cache->norm.size(); ++i) {
    double len = static_cast<double>(doc_lengths_[i]);
    cache->norm[i] = static_cast<float>(k1 * (1.0 - b + b * len / avg_len));
  }
  std::lock_guard<std::mutex> lock(norm_mu_);
  norms_ = cache;
  return cache;
}

std::vector<SearchHit> InvertedIndex::Search(const std::string& query,
                                             size_t k) const {
  return SearchTerms(ContentTokens(query), k);
}

std::vector<SearchHit> InvertedIndex::SearchTerms(
    const std::vector<std::string>& terms, size_t k) const {
  return SearchTermsScored(terms, k, nullptr);
}

std::vector<SearchHit> InvertedIndex::SearchTermsScored(
    const std::vector<std::string>& terms, size_t k,
    const CorpusStats* stats) const {
  if (terms.empty() || docs_.empty() || k == 0) return {};
  stat_queries_.fetch_add(1, std::memory_order_relaxed);
  double n = stats != nullptr ? stats->num_docs
                              : static_cast<double>(docs_.size());
  double total_len = stats != nullptr ? stats->total_length : total_length_;
  double avg_len = n > 0.0 ? total_len / n : 1.0;
  if (avg_len <= 0.0) avg_len = 1.0;

  // Resolve the query once: per present term position, its posting list,
  // idf, and a conservative per-document score cap (max posting weight
  // against the smallest length norm, rounded up). The norm is monotone
  // in document length and float rounding preserves order, so the
  // shortest document's norm is exactly the smallest norm any document
  // scores with — no array scan needed for the bound floor.
  const double k1 = kBm25K1;
  const double b = kBm25B;
  const double min_norm = static_cast<float>(
      k1 * (1.0 - b + b * static_cast<double>(min_length_) / avg_len));
  // A mis-sized term_df would silently fall back to shard-local
  // frequencies and quietly break cross-shard byte equivalence — fail
  // loudly instead (empty means "use local stats" by design).
  DS_CHECK(stats == nullptr || stats->term_df.empty() ||
           stats->term_df.size() == terms.size())
      << "CorpusStats::term_df must parallel the query terms";
  const bool injected_df =
      stats != nullptr && !stats->term_df.empty();
  std::vector<QueryTerm> query;
  query.reserve(terms.size());
  size_t total_postings = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    auto it = dict_.find(terms[i]);
    if (it == dict_.end()) continue;
    const PostingList& pl = postings_[it->second];
    double df = injected_df ? static_cast<double>(stats->term_df[i])
                            : static_cast<double>(pl.count);
    QueryTerm qt;
    qt.postings = &pl;
    qt.tid = it->second;
    qt.idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    qt.upper_bound = RoundUp(Contribution(
        qt.idf, static_cast<double>(pl.max_weight), min_norm, k1));
    query.push_back(std::move(qt));
    total_postings += pl.count;
  }
  if (query.empty()) return {};

  auto cache = Norms(avg_len, total_postings);  // null -> inline norms
  NormView norms{cache != nullptr ? cache->norm.data() : nullptr,
                 doc_lengths_.data(), k1, b, avg_len};

  // Pruning cannot help when k covers everything that could match, and
  // does not pay below a postings volume where the exhaustive scan is
  // already cheap, nor on a single list (see kPruningMinTerms). On top
  // of those, the adaptive deep-k fallback: the top-k threshold only
  // rises high enough to prune when k is a small fraction of the
  // candidate pool, so for deep k on small pools the exhaustive scan
  // wins (see kPruningKFallback). The exhaustive scorer doubles as the
  // explicit fallback — results are byte-identical either way, so this
  // whole decision is unobservable in the output.
  bool prune =
      options_.enable_pruning && k < docs_.size() && k < total_postings;
  if (prune && options_.pruning_min_postings > 0) {
    const size_t pool = std::min(total_postings, docs_.size());
    prune = query.size() >= kPruningMinTerms &&
            total_postings >= options_.pruning_min_postings &&
            k * query.size() * kPruningKFallback < pool;
  }
  if (!prune) return SearchExhaustive(query, norms, k);
  return SearchMaxScore(query, norms, min_norm, k);
}

std::vector<SearchHit> InvertedIndex::SearchExhaustive(
    const std::vector<QueryTerm>& query, const NormView& norms,
    size_t k) const {
  const double k1 = kBm25K1;
  const bool compressed = options_.compress_postings;
  const size_t block = options_.posting_block_size;
  thread_local ExhaustiveScratch scratch;
  if (scratch.acc.size() < docs_.size()) scratch.acc.resize(docs_.size());
  double* const acc = scratch.acc.data();
  std::vector<DocId>& touched = scratch.touched;

  // Accumulate per document, terms in query order (the addition sequence
  // is part of the byte-identity contract). Contributions are strictly
  // positive, so 0 doubles as the "untouched" sentinel.
  uint64_t decoded = 0;
  uint64_t cache_hits = 0;
  for (const QueryTerm& qt : query) {
    const PostingList& pl = *qt.postings;
    // Scores ids[0, n) with their exact float weights `w`.
    auto add = [&](const DocId* ids, size_t n, const float* w) {
      for (size_t i = 0; i < n; ++i) {
        const DocId d = ids[i];
        if (acc[d] == 0.0) touched.push_back(d);
        acc[d] += Contribution(qt.idf, static_cast<double>(w[i]),
                               norms.Of(d), k1);
      }
    };
    // Sealed blocks, then the raw tail. A compressed block is read
    // through the pinned-decode slots, as maxscore's cursors read it.
    const size_t nblocks = pl.blocks.size();
    const size_t sealed = nblocks * block;
    for (size_t b = 0; b < nblocks; ++b) {
      const DocId* ids = nullptr;
      bool hit = false;
      if (compressed) {
        ids = SealedBlockIds(pl, static_cast<uint32_t>(b), &scratch.block,
                             &hit);
      } else {
        ids = pl.docs.data() + b * block;
      }
      hit ? ++cache_hits : ++decoded;
      add(ids, block, pl.weights.data() + b * block);
    }
    add(pl.docs.data() + (compressed ? 0 : sealed), pl.count - sealed,
        pl.weights.data() + sealed);
  }
  stat_blocks_decoded_.fetch_add(decoded, std::memory_order_relaxed);
  stat_cache_hits_.fetch_add(cache_hits, std::memory_order_relaxed);

  // Bounded top-k selection: a min-heap under the ranking order whose
  // front is the weakest kept hit. Each touched entry is zeroed as it is
  // read, which leaves the accumulator clean for the thread's next query.
  std::vector<SearchHit> heap;
  heap.reserve(std::min(k, touched.size()));
  for (DocId d : touched) {
    const SearchHit hit{d, acc[d]};
    acc[d] = 0.0;
    if (heap.size() < k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), Better);
    } else if (Better(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
  }
  touched.clear();
  std::sort_heap(heap.begin(), heap.end(), Better);
  return heap;
}

std::vector<SearchHit> InvertedIndex::SearchMaxScore(
    std::vector<QueryTerm>& query, const NormView& norms, double min_norm,
    size_t k) const {
  const double k1 = kBm25K1;
  const size_t m = query.size();
  const uint32_t block = static_cast<uint32_t>(options_.posting_block_size);
  for (QueryTerm& qt : query) qt.cursor.Init(this, qt.postings);

  // Process lists in ascending upper-bound order; the low-cap prefix
  // becomes "non-essential" once the top-k threshold proves that prefix
  // alone can never promote a document. Ties break on query position so
  // the schedule (not the result, which is order-independent) is
  // deterministic.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (query[a].upper_bound != query[b].upper_bound) {
      return query[a].upper_bound < query[b].upper_bound;
    }
    return a < b;
  });
  // prefix[j]: conservative cap on the total contribution of the j+1
  // lowest-bound lists.
  std::vector<double> prefix(m);
  double run = 0.0;
  for (size_t j = 0; j < m; ++j) {
    run += query[order[j]].upper_bound;
    prefix[j] = RoundUp(run);
  }

  // Min-heap of the current top k under the ranking order: heap front is
  // the weakest kept hit, i.e. the pruning threshold.
  std::vector<SearchHit> heap;
  heap.reserve(k + 1);
  double threshold = 0.0;  // meaningful only once the heap is full
  size_t ne = 0;           // order[0..ne) are non-essential

  // The block-max skip test below only changes its verdict when one of
  // its inputs moves: an essential cursor crossing into a new segment,
  // the threshold rising, or a list demotion. `blockmax_dirty` tracks
  // exactly that, so the steady state (no skip possible) costs one
  // boolean test per frontier instead of a bound recomputation.
  bool blockmax_dirty = true;

  auto demote = [&] {
    while (ne < m && prefix[ne] <= threshold) ++ne;
  };

  // Block-max score cap of the segment a term's cursor sits in,
  // recomputed only when the cursor crosses a segment boundary. Like
  // the list-level bound but against the block's max weight — tighter,
  // and still conservative (min_norm is the corpus-wide norm floor).
  auto seg_bound = [&](QueryTerm& qt) {
    if (qt.seg_of_bound != qt.cursor.seg) {
      qt.seg_of_bound = qt.cursor.seg;
      qt.seg_bound = RoundUp(Contribution(
          qt.idf, static_cast<double>(qt.cursor.SegMaxWeight()), min_norm,
          k1));
    }
    return qt.seg_bound;
  };

  // Impact-ordered warm-up: exactly score the documents of the few
  // highest-impact sealed blocks (per-term impact order, priced by each
  // block's idf-scaled score cap) and seed the heap with them, so the
  // DAAT sweep below starts against a realistic threshold instead of
  // raising it from zero one frontier at a time. Byte-identity is
  // unaffected: warm documents are scored with the exhaustive addition
  // sequence and skipped in the sweep (already fully considered), and
  // every bound test in this function strictly inflates (RoundUp), so a
  // document whose true score ties the warm threshold still reaches
  // exact scoring where the (score, doc id) order decides — seeding
  // out of doc-id order therefore cannot change the unique top k.
  uint64_t warm_decoded = 0;
  uint64_t warm_cache_hits = 0;
  std::vector<DocId> warm_docs;
  constexpr size_t kWarmBlocksMax = 4;
  struct WarmBlock {
    double pri;
    size_t t;
    uint32_t b;
  };
  std::vector<WarmBlock> warm_blocks;
  for (size_t t = 0; t < m; ++t) {
    const PostingList& pl = *query[t].postings;
    const size_t take = std::min(pl.impact_order.size(), kWarmBlocksMax);
    for (size_t i = 0; i < take; ++i) {
      const uint32_t b = pl.impact_order[i];
      warm_blocks.push_back(WarmBlock{
          Contribution(query[t].idf,
                       static_cast<double>(pl.blocks[b].max_weight),
                       min_norm, k1),
          t, b});
    }
  }
  std::sort(warm_blocks.begin(), warm_blocks.end(),
            [](const WarmBlock& a, const WarmBlock& b) {
              if (a.pri != b.pri) return a.pri > b.pri;
              if (a.t != b.t) return a.t < b.t;
              return a.b < b.b;
            });
  // Only worth it when the warmed blocks can fill the heap — a
  // partially filled heap has no threshold, so the work would prune
  // nothing.
  if (std::min(warm_blocks.size(), kWarmBlocksMax) * block >= k) {
    std::vector<DocId> buf;
    size_t taken = 0;
    for (const WarmBlock& wb : warm_blocks) {
      if (taken >= kWarmBlocksMax || warm_docs.size() >= k) break;
      const PostingList& pl = *query[wb.t].postings;
      if (options_.compress_postings) {
        // Warm blocks are per-term impact maxima — the hottest blocks in
        // the index — so they all but live pinned.
        bool hit = false;
        const DocId* ids = SealedBlockIds(pl, wb.b, &buf, &hit);
        warm_docs.insert(warm_docs.end(), ids, ids + block);
        hit ? ++warm_cache_hits : ++warm_decoded;
      } else {
        const DocId* src = pl.docs.data() + wb.b * block;
        warm_docs.insert(warm_docs.end(), src, src + block);
        ++warm_decoded;
      }
      ++taken;
    }
    std::sort(warm_docs.begin(), warm_docs.end());
    warm_docs.erase(std::unique(warm_docs.begin(), warm_docs.end()),
                    warm_docs.end());
    if (warm_docs.size() >= k) {
      for (DocId d : warm_docs) {
        SearchHit cand_hit{d, ScoreDocExact(query, norms, d)};
        if (heap.size() < k) {
          heap.push_back(cand_hit);
          std::push_heap(heap.begin(), heap.end(), Better);
        } else if (Better(cand_hit, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), Better);
          heap.back() = cand_hit;
          std::push_heap(heap.begin(), heap.end(), Better);
        }
      }
      threshold = heap.front().score;
      demote();
    } else {
      // Too few distinct documents to fill the heap: abandon the warm
      // start so the sweep below owns every document exactly once.
      warm_docs.clear();
      heap.clear();
    }
  }

  constexpr DocId kNoDoc = static_cast<DocId>(-1);
  // The DAAT frontier only moves forward, so the warm-doc membership
  // test is a monotone pointer into the sorted warm_docs — O(1)
  // amortized against a binary search per frontier.
  size_t warm_idx = 0;
  // Essential cursors sitting ON the frontier, as indices into `order`,
  // collected by the min-scan itself (argmin set, ascending). The
  // contribution and advance passes walk this set instead of re-scanning
  // every essential cursor — demote() only grows `ne`, never reorders
  // `order`, so the indices stay valid across the heap update.
  std::vector<size_t> match(m);
  size_t match_n = 0;
  for (;;) {
    // Document-at-a-time over the essential lists. Once every list is
    // non-essential (their combined cap is at or below the threshold),
    // no remaining document can enter the top k: the cap was strictly
    // inflated (RoundUp), so a document whose true score merely TIES
    // the threshold would keep its list essential — demotion proves a
    // strict miss, independent of visit order (which warm-up perturbs).
    DocId frontier = kNoDoc;
    match_n = 0;
    for (size_t j = ne; j < m; ++j) {
      const QueryTerm& qt = query[order[j]];
      if (qt.cursor.AtEnd()) continue;
      const DocId d = qt.cursor.Doc();
      if (d < frontier) {
        frontier = d;
        match[0] = j;
        match_n = 1;
      } else if (d == frontier) {
        match[match_n++] = j;
      }
    }
    if (frontier == kNoDoc) break;

    // A warm-start document was already exactly scored against the heap;
    // just move the cursors past it.
    while (warm_idx < warm_docs.size() && warm_docs[warm_idx] < frontier) {
      ++warm_idx;
    }
    if (warm_idx < warm_docs.size() && warm_docs[warm_idx] == frontier) {
      for (size_t i = 0; i < match_n; ++i) {
        QueryTerm& qt = query[order[match[i]]];
        const uint32_t seg_before = qt.cursor.seg;
        qt.cursor.Next();
        if (qt.cursor.AtEnd() || qt.cursor.seg != seg_before) {
          blockmax_dirty = true;
        }
      }
      continue;
    }

    const bool full = heap.size() == k;

    // Block-max skip: cap what any document up to the nearest essential
    // block boundary could score — each essential list's current-block
    // cap (their cursors sit at/after the frontier, so for ids up to
    // their block's last doc, every matching posting is inside that
    // block) plus the non-essential lists' list-level cap. If even that
    // strictly inflated cap cannot exceed the threshold, every id in
    // [frontier, boundary] is provably a strict miss (a potential tie
    // would keep the cap above the threshold), and the cursors jump
    // past the boundary without decoding anything.
    if (full && blockmax_dirty) {
      // The chain below runs on segment metadata alone (seg_bound,
      // SegLastDoc): consecutive jumps use SkipSegTo, whose compressed
      // landings are deferred, so a landing segment that this very test
      // skips again on the next lap is never decoded. Only when no
      // further skip is provable do the survivors materialize.
      bool jumped = false;
      for (;;) {
        double cap = ne > 0 ? prefix[ne - 1] : 0.0;
        DocId boundary = kNoDoc;
        for (size_t j = ne; j < m; ++j) {
          QueryTerm& qt = query[order[j]];
          if (qt.cursor.AtEnd()) continue;
          cap += seg_bound(qt);
          boundary = std::min(boundary, qt.cursor.SegLastDoc());
        }
        if (boundary == kNoDoc || RoundUp(cap) > threshold) break;
        jumped = true;
        const DocId next = boundary + 1;  // ids < num_docs: no overflow
        for (size_t j = ne; j < m; ++j) {
          query[order[j]].cursor.SkipSegTo(next);
        }
      }
      blockmax_dirty = false;
      if (jumped) {
        for (size_t j = ne; j < m; ++j) query[order[j]].cursor.EnsureLoaded();
        continue;  // the frontier moved; recompute it
      }
    }

    for (QueryTerm& qt : query) qt.at_frontier = false;

    // Exact contributions from the essential lists sitting on the
    // frontier. `match` already holds exactly the essential cursors on
    // the frontier, in order-array order.
    const double frontier_norm = norms.Of(frontier);
    double partial = 0.0;
    for (size_t i = 0; i < match_n; ++i) {
      QueryTerm& qt = query[order[match[i]]];
      qt.contribution = Contribution(
          qt.idf, static_cast<double>(qt.cursor.Weight()), frontier_norm,
          k1);
      qt.at_frontier = true;
      partial += qt.contribution;
    }

    bool viable =
        !full ||
        RoundUp(partial + (ne > 0 ? prefix[ne - 1] : 0.0)) > threshold;
    if (viable) {
      // Probe the non-essential lists, highest cap first, re-checking
      // what the still-unprobed prefix could add before each probe.
      double running = partial;
      for (size_t j = ne; j-- > 0;) {
        if (full && RoundUp(running + prefix[j]) <= threshold) {
          viable = false;
          break;
        }
        QueryTerm& qt = query[order[j]];
        qt.cursor.SeekTo(frontier);
        if (!qt.cursor.AtEnd() && qt.cursor.Doc() == frontier) {
          qt.contribution = Contribution(
              qt.idf, static_cast<double>(qt.cursor.Weight()),
              frontier_norm, k1);
          qt.at_frontier = true;
          running += qt.contribution;
        }
      }
    }
    if (viable) {
      // The candidate survives every bound: its real score is the sum of
      // the cached exact contributions in original query order — the
      // exhaustive accumulator's exact addition sequence.
      double score = 0.0;
      for (const QueryTerm& qt : query) {
        if (qt.at_frontier) score += qt.contribution;
      }
      SearchHit cand{frontier, score};
      if (!full) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), Better);
        if (heap.size() == k) {
          threshold = heap.front().score;
          demote();
          blockmax_dirty = true;
        }
      } else if (Better(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), Better);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), Better);
        threshold = heap.front().score;
        demote();
        blockmax_dirty = true;
      }
    }

    // Advance the matched essential cursors past the frontier. demote()
    // above may have grown `ne`; a just-demoted cursor is left where it
    // is (the non-essential probe will SeekTo past it later), exactly as
    // the former full rescan over [ne, m) behaved.
    for (size_t i = 0; i < match_n; ++i) {
      if (match[i] < ne) continue;
      QueryTerm& qt = query[order[match[i]]];
      const uint32_t seg_before = qt.cursor.seg;
      qt.cursor.Next();
      // Crossing into a new segment (or off the list's end) changes
      // the skip test's inputs; re-arm it.
      if (qt.cursor.AtEnd() || qt.cursor.seg != seg_before) {
        blockmax_dirty = true;
      }
    }
  }

  uint64_t dec = warm_decoded;
  uint64_t skp = 0;
  uint64_t hits = warm_cache_hits;
  for (const QueryTerm& qt : query) {
    dec += qt.cursor.decoded;
    skp += qt.cursor.skipped;
    hits += qt.cursor.cache_hits;
  }
  stat_blocks_decoded_.fetch_add(dec, std::memory_order_relaxed);
  stat_blocks_skipped_.fetch_add(skp, std::memory_order_relaxed);
  stat_cache_hits_.fetch_add(hits, std::memory_order_relaxed);

  std::sort(heap.begin(), heap.end(), Better);
  return heap;
}

float InvertedIndex::ForwardWeight(TermId tid, DocId d) const {
  const auto& fwd = forward_[d];
  auto it = std::lower_bound(
      fwd.begin(), fwd.end(), tid,
      [](const std::pair<TermId, float>& p, TermId t) { return p.first < t; });
  return it != fwd.end() && it->first == tid ? it->second : 0.0f;
}

double InvertedIndex::ScoreDocExact(const std::vector<QueryTerm>& query,
                                    const NormView& norms, DocId d) const {
  const double k1 = kBm25K1;
  const double norm = norms.Of(d);
  double score = 0.0;
  for (const QueryTerm& qt : query) {
    const float w = ForwardWeight(qt.tid, d);
    if (w > 0.0f) {
      score += Contribution(qt.idf, static_cast<double>(w), norm, k1);
    }
  }
  return score;
}

DocInfo InvertedIndex::doc(DocId id) const {
  DS_CHECK(id < docs_.size()) << "doc id out of range";
  return docs_[id];
}

const DocInfo& InvertedIndex::doc_ref(DocId id) const {
  DS_CHECK(id < docs_.size()) << "doc id out of range";
  return docs_[id];
}

size_t InvertedIndex::DocFrequency(const std::string& term) const {
  auto it = dict_.find(term);
  return it == dict_.end() ? 0 : postings_[it->second].count;
}

TermId InvertedIndex::LookupTerm(const std::string& term) const {
  auto it = dict_.find(term);
  return it == dict_.end() ? kInvalidTerm : it->second;
}

bool InvertedIndex::ContainsContent(uint64_t content_hash) const {
  return by_hash_.count(content_hash) > 0;
}

IndexMemoryUsage InvertedIndex::MemoryUsage() const {
  IndexMemoryUsage u;
  for (const PostingList& pl : postings_) {
    u.posting_doc_raw_bytes += pl.docs.size() * sizeof(DocId);
    u.posting_doc_packed_bytes += pl.packed.size();
    u.posting_weight_bytes += pl.weights.size() * sizeof(float);
    u.posting_block_bytes += pl.blocks.size() * sizeof(BlockMeta) +
                             pl.impact_order.size() * sizeof(uint32_t);
    u.num_postings += pl.count;
  }
  // Each term is stored twice (dictionary key + the id -> name table);
  // the flat 32-byte constant stands in for per-entry hash/bucket
  // overhead so the figure stays deterministic across allocators.
  for (const std::string& name : term_names_) {
    u.dictionary_bytes +=
        2 * name.size() + 2 * sizeof(std::string) + sizeof(TermId) + 32;
  }
  {
    std::lock_guard<std::mutex> lock(norm_mu_);
    if (norms_ != nullptr) {
      u.norm_cache_bytes = norms_->norm.size() * sizeof(float);
    }
  }
  const int64_t budget = static_cast<int64_t>(options_.decode_cache_bytes);
  const int64_t left = std::max(
      int64_t{0},
      std::min(budget, decode_cache_left_.load(std::memory_order_relaxed)));
  u.decode_cache_bytes = static_cast<uint64_t>(budget - left);
  return u;
}

SearchStats InvertedIndex::search_stats() const {
  SearchStats s;
  s.queries = stat_queries_.load(std::memory_order_relaxed);
  s.blocks_decoded = stat_blocks_decoded_.load(std::memory_order_relaxed);
  s.blocks_skipped = stat_blocks_skipped_.load(std::memory_order_relaxed);
  s.decode_cache_hits = stat_cache_hits_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::string> InvertedIndex::CharacteristicTerms(
    const std::string& host, size_t k) const {
  auto it = by_host_.find(host);
  if (it == by_host_.end()) return {};
  // Aggregate term weights over the host's documents via their forward
  // lists: O(host docs × terms per doc), independent of vocabulary size.
  // Host doc lists are in ascending id order, so each term's weights are
  // summed in the same order a postings walk would use.
  std::unordered_map<TermId, double> host_tf;
  for (DocId d : it->second) {
    for (const auto& [tid, w] : forward_[d]) {
      host_tf[tid] += static_cast<double>(w);
    }
  }
  double n = static_cast<double>(docs_.size());
  std::vector<std::pair<double, TermId>> ranked;
  ranked.reserve(host_tf.size());
  for (const auto& [tid, tf] : host_tf) {
    double df = static_cast<double>(postings_[tid].count);
    double idf = std::log(1.0 + n / df);
    ranked.emplace_back(tf * idf, tid);
  }
  std::sort(ranked.begin(), ranked.end(),
            [this](const std::pair<double, TermId>& a,
                   const std::pair<double, TermId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return term_names_[a.second] < term_names_[b.second];
            });
  std::vector<std::string> out;
  for (size_t i = 0; i < ranked.size() && i < k; ++i) {
    out.push_back(term_names_[ranked[i].second]);
  }
  return out;
}

std::vector<DocId> InvertedIndex::DocsForHost(const std::string& host) const {
  auto it = by_host_.find(host);
  return it == by_host_.end() ? std::vector<DocId>{} : it->second;
}

}  // namespace index
}  // namespace deepsurf
