// Copyright 2026 The deepsurf Authors.
//
// The simulated web. The paper's substrate is the live Web; ours is a
// registry of in-process servers keyed by hostname, fetched through a
// single SimulatedWeb facade that also does what a polite crawler's
// fetch layer must do: per-host request accounting (the paper's "light
// load on underlying sites" claim is measured here) and honest status
// codes.

#ifndef DEEPSURF_NET_WEB_H_
#define DEEPSURF_NET_WEB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/url.h"
#include "util/result.h"

namespace deepsurf {
namespace net {

/// HTTP request method. The distinction is semantically load-bearing for
/// the paper: POST submissions cannot be surfaced (§3.2).
enum class Method { kGet, kPost };

/// A simulated HTTP request.
struct HttpRequest {
  Method method = Method::kGet;
  Url url;
  QueryParams body;  ///< form body for POST
};

/// A simulated HTTP response.
struct HttpResponse {
  int status_code = 200;
  std::string content_type = "text/html";
  std::string body;
};

/// Interface implemented by every simulated site (surface or deep-web).
class WebServer {
 public:
  virtual ~WebServer() = default;

  /// Handles one request. Implementations must be deterministic.
  virtual HttpResponse Handle(const HttpRequest& request) = 0;

  /// The hostname this server answers for.
  virtual const std::string& host() const = 0;
};

/// Per-host traffic counters, the basis of the load experiments (E11).
struct HostTraffic {
  uint64_t get_requests = 0;
  uint64_t post_requests = 0;
  uint64_t bytes_served = 0;
  uint64_t errors = 0;
};

/// Registry + fetch facade over all simulated sites.
///
/// Thread safety: fetches (Get/Post) and traffic reads may be issued from
/// any number of threads concurrently. Requests to one host are serialized
/// on a per-host lock — servers may keep mutable state (FlakyServer does)
/// and a polite fetch layer holds one connection per site anyway — while
/// requests to different hosts proceed in parallel. Register is intended
/// for single-threaded setup, but takes the registry lock so a stray
/// concurrent call is safe rather than undefined.
class SimulatedWeb {
 public:
  SimulatedWeb() = default;
  SimulatedWeb(const SimulatedWeb&) = delete;
  SimulatedWeb& operator=(const SimulatedWeb&) = delete;

  /// Registers a server; fails when the host is already taken.
  Status Register(std::shared_ptr<WebServer> server);

  /// True when `host` is registered.
  bool HasHost(const std::string& host) const;

  /// Fetches a URL with GET. NotFound for unknown hosts; the returned
  /// response may still carry a non-200 status code from the site itself.
  Result<HttpResponse> Get(const Url& url);

  /// Convenience: parse + GET.
  Result<HttpResponse> Get(const std::string& url);

  /// Sends a POST with a form body.
  Result<HttpResponse> Post(const Url& url, const QueryParams& body);

  /// Cumulative traffic for `host` (zeros for unknown hosts).
  HostTraffic TrafficFor(const std::string& host) const;

  /// Total requests across all hosts.
  uint64_t total_requests() const;

  /// Resets all traffic counters (e.g. between the offline-analysis and
  /// serving phases of an experiment).
  void ResetTraffic();

  /// All registered hostnames, sorted.
  std::vector<std::string> Hosts() const;

 private:
  /// One registered host: its server plus the lock serializing Handle
  /// calls (heap-allocated so the registry map can grow without moving
  /// live mutexes).
  struct HostEntry {
    std::shared_ptr<WebServer> server;
    std::unique_ptr<std::mutex> serve_mu;
  };

  Result<HttpResponse> Dispatch(const HttpRequest& request);

  /// Guards the registry, the traffic counters, and total_requests_.
  mutable std::mutex mu_;
  std::map<std::string, HostEntry> servers_;
  std::map<std::string, HostTraffic> traffic_;
  uint64_t total_requests_ = 0;
};

}  // namespace net
}  // namespace deepsurf

#endif  // DEEPSURF_NET_WEB_H_
