#include "core/prober.h"

#include <algorithm>

#include "extract/record_extractor.h"
#include "html/parser.h"
#include "index/analyzer.h"
#include "util/hash.h"

namespace deepsurf {
namespace core {

std::map<std::string, double> ProbeResult::TermFrequencies() const {
  std::map<std::string, double> tf;
  for (const auto& text : record_texts) {
    for (auto& term : index::ContentTokens(text)) tf[std::move(term)] += 1.0;
  }
  return tf;
}

std::map<std::string, double> ProbeResult::RecordDocumentFrequencies() const {
  std::map<std::string, double> rdf;
  for (const auto& text : record_texts) {
    // Each record counts a term once.
    std::vector<std::string> terms = index::ContentTokens(text);
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    for (auto& term : terms) rdf[std::move(term)] += 1.0;
  }
  return rdf;
}

ProbeResult ReducePage(int status_code, const std::string& body) {
  ProbeResult out;
  out.status_code = status_code;
  if (status_code != 200) return out;
  auto dom = html::Parse(body);
  auto extraction = extract::ExtractRecords(*dom);
  out.record_count = extraction.records.size();
  // Signature over the sorted record hashes: order-independent, so a
  // sort-permuted page has the same signature — presentation inputs thus
  // test as uninformative.
  std::vector<uint64_t> hashes;
  hashes.reserve(extraction.records.size());
  out.record_texts.reserve(extraction.records.size());
  for (const auto& rec : extraction.records) {
    std::string joined = rec.Joined();
    hashes.push_back(Fnv1a64(joined));
    out.record_texts.push_back(std::move(joined));
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t sig = 0x9e3779b97f4a7c15ULL;
  for (uint64_t h : hashes) sig = HashCombine(sig, h);
  out.signature = sig;
  out.record_hashes = std::move(hashes);
  return out;
}

FormProber::FormProber(net::ProbeScheduler* scheduler,
                       const AnalyzedForm& form, size_t budget)
    : scheduler_(scheduler), form_(form), budget_(budget) {}

FormProber::FormProber(net::SimulatedWeb* web, const AnalyzedForm& form,
                       size_t budget)
    : owned_scheduler_(std::make_unique<net::ProbeScheduler>(web)),
      scheduler_(owned_scheduler_.get()),
      form_(form),
      budget_(budget) {}

Result<ProbeResult> FormProber::Probe(const Bindings& bindings) {
  if (form_.is_post) {
    return Status::Unimplemented(
        "POST forms cannot be probed by the surfacer");
  }
  net::Url url = SubmissionUrl(form_, bindings);
  std::string key = url.ToCanonicalString();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++cache_hits_;
    return it->second;
  }
  if (budget_ != 0 && fetches_ >= budget_) {
    return Status::ResourceExhausted("probe budget exhausted");
  }
  ++fetches_;
  auto resp = scheduler_->Fetch(url);
  if (!resp.ok()) return resp.status();
  return cache_
      .emplace(std::move(key), ReducePage(resp->status_code, resp->body))
      .first->second;
}

}  // namespace core
}  // namespace deepsurf
