// M1 — substrate micro-benchmark: HTML tokenize / parse / extract
// throughput on synthetic result pages of realistic sizes, plus the
// layers a probe page passes through next: record extraction from the
// parsed page, the text analyzer and the prober's page reduction, with
// and without a vocabulary read.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/prober.h"
#include "extract/record_extractor.h"
#include "html/forms.h"
#include "html/parser.h"
#include "html/text.h"
#include "html/tokenizer.h"
#include "index/analyzer.h"

namespace deepsurf {
namespace {

/// A representative result page body (table layout, ~n records).
std::string MakePage(size_t records) {
  auto f = bench::MakeFixture(synthweb::Domain::kUsedCars, 7, records + 10);
  auto resp = f->web.Get("http://site.example.com/search");
  DS_CHECK(resp.ok());
  return resp->body;
}

void BM_Tokenize(benchmark::State& state) {
  std::string page = MakePage(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto tokens = html::Tokenize(page);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_Tokenize)->Arg(10)->Arg(50)->Arg(200);

void BM_Parse(benchmark::State& state) {
  std::string page = MakePage(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto dom = html::Parse(page);
    benchmark::DoNotOptimize(dom);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_Parse)->Arg(10)->Arg(50)->Arg(200);

/// Record extraction alone, on an already-parsed page: the part of a
/// probe page's reduction that follows BM_Parse.
void BM_ExtractRecords(benchmark::State& state) {
  auto dom = html::Parse(MakePage(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    auto records = extract::ExtractRecords(*dom);
    benchmark::DoNotOptimize(records);
  }
}
BENCHMARK(BM_ExtractRecords)->Arg(10)->Arg(50)->Arg(200);

void BM_ExtractForms(benchmark::State& state) {
  auto f = bench::MakeFixture(synthweb::Domain::kUsedCars, 7, 100);
  auto resp = f->web.Get(f->site->FormPageUrl());
  DS_CHECK(resp.ok());
  std::string page = resp->body;
  for (auto _ : state) {
    auto dom = html::Parse(page);
    auto forms = html::ExtractForms(*dom);
    benchmark::DoNotOptimize(forms);
  }
}
BENCHMARK(BM_ExtractForms);

void BM_ExtractText(benchmark::State& state) {
  std::string page = MakePage(50);
  auto dom = html::Parse(page);
  for (auto _ : state) {
    auto text = html::ExtractText(*dom);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_ExtractText);

void BM_ExtractTables(benchmark::State& state) {
  std::string page = MakePage(50);
  auto dom = html::Parse(page);
  for (auto _ : state) {
    auto tables = html::ExtractTables(*dom);
    benchmark::DoNotOptimize(tables);
  }
}
BENCHMARK(BM_ExtractTables);

void BM_ContentTokens(benchmark::State& state) {
  auto dom = html::Parse(MakePage(static_cast<size_t>(state.range(0))));
  std::string text = html::ExtractText(*dom);
  for (auto _ : state) {
    auto tokens = index::ContentTokens(text);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ContentTokens)->Arg(10)->Arg(50)->Arg(200);

/// One probe page's reduction (parse, record extraction, hashes). With
/// vocab=1 it also derives both vocabulary views, as keyword mining and
/// db-selection detection do on the probes they read.
void BM_ReducePage(benchmark::State& state) {
  std::string page = MakePage(static_cast<size_t>(state.range(0)));
  const bool read_vocabulary = state.range(1) != 0;
  for (auto _ : state) {
    auto reduced = core::ReducePage(200, page);
    if (read_vocabulary) {
      auto tf = reduced.TermFrequencies();
      auto rdf = reduced.RecordDocumentFrequencies();
      benchmark::DoNotOptimize(tf);
      benchmark::DoNotOptimize(rdf);
    }
    benchmark::DoNotOptimize(reduced);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_ReducePage)
    ->ArgNames({"records", "vocab"})
    ->ArgsProduct({{10, 50, 200}, {0, 1}});

}  // namespace
}  // namespace deepsurf
