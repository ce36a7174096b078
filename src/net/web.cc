#include "net/web.h"

namespace deepsurf {
namespace net {

Status SimulatedWeb::Register(std::shared_ptr<WebServer> server) {
  // A copy, not a reference into the server: a failed emplace below
  // destroys the moved-in server before the error message reads `host`.
  const std::string host = server->host();
  if (host.empty()) {
    return Status::InvalidArgument("server has empty host");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = servers_.emplace(
      host, HostEntry{std::move(server), std::make_unique<std::mutex>()});
  if (!inserted) {
    return Status::InvalidArgument("host already registered: " + host);
  }
  return Status::OK();
}

bool SimulatedWeb::HasHost(const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  return servers_.count(host) > 0;
}

Result<HttpResponse> SimulatedWeb::Dispatch(const HttpRequest& request) {
  WebServer* server = nullptr;
  std::mutex* serve_mu = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = servers_.find(request.url.host());
    if (it == servers_.end()) {
      return Status::NotFound("unknown host: " + request.url.host());
    }
    server = it->second.server.get();
    serve_mu = it->second.serve_mu.get();
    ++total_requests_;
    HostTraffic& t = traffic_[request.url.host()];
    if (request.method == Method::kGet) {
      ++t.get_requests;
    } else {
      ++t.post_requests;
    }
  }
  // Handle outside the registry lock so different hosts serve in
  // parallel; the per-host lock keeps each (possibly stateful) server
  // single-threaded.
  HttpResponse resp;
  {
    std::lock_guard<std::mutex> serve_lock(*serve_mu);
    resp = server->Handle(request);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    HostTraffic& t = traffic_[request.url.host()];
    t.bytes_served += resp.body.size();
    if (resp.status_code >= 400) ++t.errors;
  }
  return resp;
}

Result<HttpResponse> SimulatedWeb::Get(const Url& url) {
  HttpRequest req;
  req.method = Method::kGet;
  req.url = url;
  return Dispatch(req);
}

Result<HttpResponse> SimulatedWeb::Get(const std::string& url) {
  DEEPSURF_ASSIGN_OR_RETURN(Url parsed, Url::Parse(url));
  return Get(parsed);
}

Result<HttpResponse> SimulatedWeb::Post(const Url& url,
                                        const QueryParams& body) {
  HttpRequest req;
  req.method = Method::kPost;
  req.url = url;
  req.body = body;
  return Dispatch(req);
}

HostTraffic SimulatedWeb::TrafficFor(const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = traffic_.find(host);
  return it == traffic_.end() ? HostTraffic{} : it->second;
}

uint64_t SimulatedWeb::total_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_requests_;
}

void SimulatedWeb::ResetTraffic() {
  std::lock_guard<std::mutex> lock(mu_);
  traffic_.clear();
  total_requests_ = 0;
}

std::vector<std::string> SimulatedWeb::Hosts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(servers_.size());
  for (const auto& [host, entry] : servers_) out.push_back(host);
  return out;
}

}  // namespace net
}  // namespace deepsurf
