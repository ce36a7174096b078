// Copyright 2026 The deepsurf Authors.
//
// URL model. Surfacing is fundamentally URL manipulation: a surfaced page
// *is* a GET URL whose query string encodes a form submission, so the
// codec here (parse / serialize / percent-encode / resolve-relative) is a
// first-class substrate.

#ifndef DEEPSURF_NET_URL_H_
#define DEEPSURF_NET_URL_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace deepsurf {
namespace net {

/// Ordered multimap of query parameters. Order matters: surfaced URLs must
/// be canonical and deterministic so that the same submission always
/// yields the same URL (and thus the same index document).
using QueryParams = std::vector<std::pair<std::string, std::string>>;

/// A parsed absolute URL: scheme://host[:port]/path[?query].
class Url {
 public:
  Url() = default;

  /// Parses an absolute URL. Fails on a missing scheme or host, a bad
  /// port, or a host that still holds ':' once the port is split off.
  static Result<Url> Parse(std::string_view s);

  /// Resolves `ref` (possibly relative) against base `base`. Handles
  /// absolute URLs (a scheme, then "://"), absolute paths ("/a/b"),
  /// relative paths ("b?x=1") and bare query strings ("?x=1"). A "://"
  /// that does not follow a leading scheme, as in "/go?next=http://x/",
  /// belongs to a relative reference.
  static Result<Url> Resolve(const Url& base, std::string_view ref);

  const std::string& scheme() const { return scheme_; }
  const std::string& host() const { return host_; }
  int port() const { return port_; }
  const std::string& path() const { return path_; }
  const QueryParams& query() const { return query_; }

  void set_scheme(std::string s) { scheme_ = std::move(s); }
  void set_host(std::string h) { host_ = std::move(h); }
  void set_port(int p) { port_ = p; }
  void set_path(std::string p) { path_ = std::move(p); }
  void set_query(QueryParams q) { query_ = std::move(q); }

  /// Appends one query parameter.
  void AddParam(std::string key, std::string value);

  /// First value for `key`, or "" when absent.
  std::string GetParam(std::string_view key) const;

  /// True when a parameter with `key` exists.
  bool HasParam(std::string_view key) const;

  /// Canonical string form: lowercased scheme/host, percent-encoded path
  /// and query, parameters in insertion order. For a URL that Parse or
  /// Resolve produced, Parse reads it back to the same ToString().
  std::string ToString() const;

  /// Canonical form with query parameters sorted by key then value; two
  /// submissions with the same bindings map to the same canonical URL
  /// regardless of parameter order.
  std::string ToCanonicalString() const;

  friend bool operator==(const Url& a, const Url& b) {
    return a.ToCanonicalString() == b.ToCanonicalString();
  }

 private:
  std::string scheme_ = "http";
  std::string host_;
  int port_ = 0;  ///< 0 = scheme default
  std::string path_ = "/";
  QueryParams query_;
};

/// Percent-encodes `s` for use inside a query component (RFC 3986
/// unreserved characters pass through; space becomes '+', matching
/// application/x-www-form-urlencoded, which is what form GETs produce).
std::string FormUrlEncode(std::string_view s);

/// Decodes %XX escapes and '+' as space.
std::string FormUrlDecode(std::string_view s);

/// Serializes parameters as "k1=v1&k2=v2" with form-url-encoding.
std::string EncodeQuery(const QueryParams& params);

/// Parses "k1=v1&k2=v2" (decoding escapes); tolerates empty segments.
QueryParams DecodeQuery(std::string_view query);

}  // namespace net
}  // namespace deepsurf

#endif  // DEEPSURF_NET_URL_H_
