// Tests for the probe scheduler: cache hit/miss/eviction accounting,
// normalized-URL deduplication, in-flight coalescing, and concurrency
// safety of the shared fetch layer.

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/fetcher.h"
#include "net/web.h"

namespace deepsurf {
namespace net {
namespace {

/// Deterministic server echoing the canonical URL.
class EchoServer : public WebServer {
 public:
  explicit EchoServer(std::string host) : host_(std::move(host)) {}

  HttpResponse Handle(const HttpRequest& request) override {
    HttpResponse resp;
    resp.body = "echo:" + request.url.ToCanonicalString();
    return resp;
  }

  const std::string& host() const override { return host_; }

 private:
  std::string host_;
};

Url MakeUrl(const std::string& s) { return Url::Parse(s).value(); }

TEST(ProbeSchedulerTest, CacheHitAndMissAccounting) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  ProbeScheduler scheduler(&web);

  auto first = scheduler.Fetch(MakeUrl("http://a.com/search?q=x"));
  ASSERT_TRUE(first.ok());
  auto second = scheduler.Fetch(MakeUrl("http://a.com/search?q=x"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->body, second->body);

  auto stats = scheduler.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  // Only one request reached the site.
  EXPECT_EQ(web.TrafficFor("a.com").get_requests, 1u);
}

TEST(ProbeSchedulerTest, NormalizedUrlDedup) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  ProbeScheduler scheduler(&web);

  // Same submission, different parameter order: one cache entry.
  Url u1 = MakeUrl("http://a.com/search");
  u1.AddParam("make", "honda");
  u1.AddParam("year", "2004");
  Url u2 = MakeUrl("http://a.com/search");
  u2.AddParam("year", "2004");
  u2.AddParam("make", "honda");
  ASSERT_NE(u1.ToString(), u2.ToString());

  ASSERT_TRUE(scheduler.Fetch(u1).ok());
  ASSERT_TRUE(scheduler.Fetch(u2).ok());
  auto stats = scheduler.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(scheduler.cache_size(), 1u);
}

TEST(ProbeSchedulerTest, LruEviction) {
  constexpr int kCapacity = 4096;
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  ProbeScheduler scheduler(&web);
  auto page = [](int p) {
    return MakeUrl("http://a.com/?p=" + std::to_string(p));
  };

  for (int p = 0; p < kCapacity; ++p) {
    ASSERT_TRUE(scheduler.Fetch(page(p)).ok());
  }
  EXPECT_EQ(scheduler.cache_size(), static_cast<size_t>(kCapacity));
  EXPECT_EQ(scheduler.stats().evictions, 0u);
  // Touch p=0 so p=1 is the LRU victim of the next distinct fetch.
  ASSERT_TRUE(scheduler.Fetch(page(0)).ok());
  ASSERT_TRUE(scheduler.Fetch(page(kCapacity)).ok());
  EXPECT_EQ(scheduler.cache_size(), static_cast<size_t>(kCapacity));
  EXPECT_EQ(scheduler.stats().evictions, 1u);

  // p=0 survived; p=1 was evicted and refetches as a miss.
  uint64_t misses_before = scheduler.stats().cache_misses;
  ASSERT_TRUE(scheduler.Fetch(page(0)).ok());
  EXPECT_EQ(scheduler.stats().cache_misses, misses_before);
  ASSERT_TRUE(scheduler.Fetch(page(1)).ok());
  EXPECT_EQ(scheduler.stats().cache_misses, misses_before + 1);
}

/// Fails with 500 for the first `failures` requests, then succeeds.
class RecoveringServer : public WebServer {
 public:
  RecoveringServer(std::string host, int failures)
      : host_(std::move(host)), failures_left_(failures) {}

  HttpResponse Handle(const HttpRequest& request) override {
    HttpResponse resp;
    if (failures_left_ > 0) {
      --failures_left_;
      resp.status_code = 500;
      resp.body = "transient error";
      return resp;
    }
    resp.body = "ok:" + request.url.ToCanonicalString();
    return resp;
  }

  const std::string& host() const override { return host_; }

 private:
  std::string host_;
  int failures_left_;
};

TEST(ProbeSchedulerTest, TransientErrorsAreNotCached) {
  SimulatedWeb web;
  ASSERT_TRUE(
      web.Register(std::make_shared<RecoveringServer>("flaky.com", 1)).ok());
  ProbeScheduler scheduler(&web);

  // First fetch sees the transient 500; it must not poison the cache.
  auto first = scheduler.Fetch(MakeUrl("http://flaky.com/?p=1"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status_code, 500);
  EXPECT_EQ(scheduler.cache_size(), 0u);
  // The retry reaches the recovered site and the 200 is cached.
  auto second = scheduler.Fetch(MakeUrl("http://flaky.com/?p=1"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status_code, 200);
  EXPECT_EQ(scheduler.cache_size(), 1u);
  EXPECT_EQ(scheduler.stats().cache_misses, 2u);

  // Transport errors (unknown host) are not cached either.
  EXPECT_FALSE(scheduler.Fetch(MakeUrl("http://ghost.com/")).ok());
  EXPECT_FALSE(scheduler.Fetch(MakeUrl("http://ghost.com/")).ok());
  EXPECT_EQ(scheduler.stats().cache_misses, 4u);
}

TEST(ProbeSchedulerTest, ConcurrentFetchTotalsMatchSingleThreaded) {
  // The same URL list fetched from 8 threads and from one must charge
  // identical totals to the web: dedup loses nothing under concurrency.
  std::vector<Url> urls;
  for (int i = 0; i < 40; ++i) {
    // Each URL appears three times: dedup must collapse them everywhere.
    for (int rep = 0; rep < 3; ++rep) {
      urls.push_back(MakeUrl("http://site" + std::to_string(i % 4) +
                             ".com/?p=" + std::to_string(i)));
    }
  }

  auto run = [&](size_t num_threads) {
    SimulatedWeb web;
    for (int s = 0; s < 4; ++s) {
      EXPECT_TRUE(web.Register(std::make_shared<EchoServer>(
                                   "site" + std::to_string(s) + ".com"))
                      .ok());
    }
    ProbeScheduler scheduler(&web);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < urls.size(); i += num_threads) {
          EXPECT_TRUE(scheduler.Fetch(urls[i]).ok());
        }
      });
    }
    for (auto& th : threads) th.join();
    std::vector<uint64_t> per_host;
    for (int s = 0; s < 4; ++s) {
      per_host.push_back(
          web.TrafficFor("site" + std::to_string(s) + ".com").get_requests);
    }
    return std::make_pair(web.total_requests(), per_host);
  };

  auto [total1, hosts1] = run(1);
  auto [total8, hosts8] = run(8);
  EXPECT_EQ(total1, total8);
  EXPECT_EQ(hosts1, hosts8);
  EXPECT_EQ(total1, 40u);  // 120 requests, 40 distinct URLs
}

/// Holds every request until the test opens it, so concurrent fetches
/// of one URL are sure to overlap.
class GatedServer : public WebServer {
 public:
  explicit GatedServer(std::string host) : host_(std::move(host)) {}

  HttpResponse Handle(const HttpRequest& request) override {
    std::unique_lock<std::mutex> lock(mu_);
    open_cv_.wait(lock, [this] { return open_; });
    HttpResponse resp;
    resp.body = "gated:" + request.url.ToCanonicalString();
    return resp;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  const std::string& host() const override { return host_; }

 private:
  std::string host_;
  std::mutex mu_;
  std::condition_variable open_cv_;
  bool open_ = false;
};

TEST(ProbeSchedulerTest, ConcurrentFetchesOfOneUrlShareOneSiteRequest) {
  constexpr size_t kThreads = 6;
  SimulatedWeb web;
  auto server = std::make_shared<GatedServer>("a.com");
  ASSERT_TRUE(web.Register(server).ok());
  ProbeScheduler scheduler(&web);
  const Url url = MakeUrl("http://a.com/search?q=x");

  std::vector<std::string> bodies(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto response = scheduler.Fetch(url);
      if (response.ok()) bodies[t] = response->body;
    });
  }
  // The site holds the first request until every thread has entered
  // Fetch, so each later arrival finds that fetch still in flight.
  while (scheduler.stats().requests < kThreads) std::this_thread::yield();
  server->Open();
  for (auto& th : threads) th.join();

  EXPECT_EQ(web.TrafficFor("a.com").get_requests, 1u);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.coalesced, kThreads - 1);
  for (const auto& body : bodies) {
    EXPECT_EQ(body, "gated:" + url.ToCanonicalString());
  }
}

}  // namespace
}  // namespace net
}  // namespace deepsurf
