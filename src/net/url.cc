#include "net/url.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace deepsurf {
namespace net {

namespace {

bool IsUnreserved(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
         c == '_' || c == '.' || c == '~';
}

char HexDigit(int v) { return v < 10 ? static_cast<char>('0' + v)
                                     : static_cast<char>('A' + v - 10); }

/// True when `ref` starts with a scheme and then "://". A scheme is a
/// letter followed by letters, digits, '+', '-' or '.', in either case.
bool StartsWithScheme(std::string_view ref) {
  if (ref.empty() || !std::isalpha(static_cast<unsigned char>(ref[0]))) {
    return false;
  }
  size_t end = 1;
  while (end < ref.size() &&
         (std::isalnum(static_cast<unsigned char>(ref[end])) ||
          ref[end] == '+' || ref[end] == '-' || ref[end] == '.')) {
    ++end;
  }
  return ref.substr(end, 3) == "://";
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void AppendEscape(char c, std::string* out) {
  out->push_back('%');
  out->push_back(HexDigit((static_cast<unsigned char>(c) >> 4) & 0xF));
  out->push_back(HexDigit(static_cast<unsigned char>(c) & 0xF));
}

/// Escapes the decoded path bytes that Parse would not read back as
/// themselves: space, and the '%', '+' and '?' that FormUrlDecode and
/// the query split give meaning to. Every other byte passes through.
std::string EncodePath(std::string_view path) {
  std::string out;
  out.reserve(path.size());
  for (char c : path) {
    if (c == ' ' || c == '%' || c == '+' || c == '?') {
      AppendEscape(c, &out);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string FormUrlEncode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (IsUnreserved(c)) {
      out.push_back(c);
    } else if (c == ' ') {
      out.push_back('+');
    } else {
      AppendEscape(c, &out);
    }
  }
  return out;
}

std::string FormUrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      int hi = HexValue(s[i + 1]);
      int lo = HexValue(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string EncodeQuery(const QueryParams& params) {
  std::string out;
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out.push_back('&');
    out += FormUrlEncode(params[i].first);
    out.push_back('=');
    out += FormUrlEncode(params[i].second);
  }
  return out;
}

QueryParams DecodeQuery(std::string_view query) {
  QueryParams out;
  for (const auto& part : strings::Split(query, '&')) {
    if (part.empty()) continue;
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      out.emplace_back(FormUrlDecode(part), "");
    } else {
      out.emplace_back(FormUrlDecode(part.substr(0, eq)),
                       FormUrlDecode(part.substr(eq + 1)));
    }
  }
  return out;
}

Result<Url> Url::Parse(std::string_view s) {
  size_t scheme_end = s.find("://");
  if (scheme_end == std::string_view::npos) {
    return Status::InvalidArgument("URL missing scheme: " + std::string(s));
  }
  Url url;
  url.scheme_ = strings::ToLower(s.substr(0, scheme_end));
  size_t rest = scheme_end + 3;
  size_t path_start = s.find('/', rest);
  size_t query_start = s.find('?', rest);
  size_t host_end = std::min(path_start == std::string_view::npos
                                 ? s.size()
                                 : path_start,
                             query_start == std::string_view::npos
                                 ? s.size()
                                 : query_start);
  std::string_view hostport = s.substr(rest, host_end - rest);
  if (hostport.empty()) {
    return Status::InvalidArgument("URL missing host: " + std::string(s));
  }
  size_t colon = hostport.rfind(':');
  if (colon != std::string_view::npos &&
      strings::IsDigits(hostport.substr(colon + 1))) {
    auto port = strings::ParseInt(hostport.substr(colon + 1));
    if (!port.ok() || *port < 0 || *port > 65535) {
      return Status::InvalidArgument("bad port in URL: " + std::string(s));
    }
    url.port_ = static_cast<int>(*port);
    hostport = hostport.substr(0, colon);
  }
  // A host left empty or still holding ':' once the port is split off
  // ("http://:0/", "http://h:0:0/") would print as a different URL.
  if (hostport.empty() || hostport.find(':') != std::string_view::npos) {
    return Status::InvalidArgument("bad host in URL: " + std::string(s));
  }
  url.host_ = strings::ToLower(hostport);
  if (path_start != std::string_view::npos &&
      (query_start == std::string_view::npos || path_start < query_start)) {
    size_t path_end =
        query_start == std::string_view::npos ? s.size() : query_start;
    url.path_ = FormUrlDecode(s.substr(path_start, path_end - path_start));
  } else {
    url.path_ = "/";
  }
  if (query_start != std::string_view::npos) {
    url.query_ = DecodeQuery(s.substr(query_start + 1));
  }
  return url;
}

Result<Url> Url::Resolve(const Url& base, std::string_view ref) {
  if (ref.empty()) return base;
  if (StartsWithScheme(ref)) return Parse(ref);
  Url out = base;
  out.query_.clear();
  if (ref[0] == '?') {
    out.query_ = DecodeQuery(ref.substr(1));
    return out;
  }
  size_t query_start = ref.find('?');
  std::string_view path_part =
      query_start == std::string_view::npos ? ref : ref.substr(0, query_start);
  if (!path_part.empty() && path_part[0] == '/') {
    out.path_ = FormUrlDecode(path_part);
  } else if (!path_part.empty()) {
    // Relative to the directory of the base path.
    std::string dir = base.path_;
    size_t slash = dir.rfind('/');
    dir = slash == std::string::npos ? "/" : dir.substr(0, slash + 1);
    out.path_ = dir + FormUrlDecode(path_part);
  }
  if (query_start != std::string_view::npos) {
    out.query_ = DecodeQuery(ref.substr(query_start + 1));
  }
  return out;
}

void Url::AddParam(std::string key, std::string value) {
  query_.emplace_back(std::move(key), std::move(value));
}

std::string Url::GetParam(std::string_view key) const {
  for (const auto& [k, v] : query_) {
    if (k == key) return v;
  }
  return "";
}

bool Url::HasParam(std::string_view key) const {
  for (const auto& [k, v] : query_) {
    if (k == key) return true;
  }
  return false;
}

std::string Url::ToString() const {
  std::string out;
  out.append(scheme_);
  out.append("://");
  out.append(host_);
  if (port_ != 0) {
    out.push_back(':');
    out.append(std::to_string(port_));
  }
  out += EncodePath(path_);
  if (!query_.empty()) {
    out.push_back('?');
    out += EncodeQuery(query_);
  }
  return out;
}

std::string Url::ToCanonicalString() const {
  Url sorted = *this;
  std::stable_sort(sorted.query_.begin(), sorted.query_.end());
  return sorted.ToString();
}

}  // namespace net
}  // namespace deepsurf
