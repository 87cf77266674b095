#include "fleet/http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "support/http.hpp"
#include "support/strings.hpp"

namespace rca::fleet {

namespace {

constexpr std::size_t kMaxHeadBytes = 64 * 1024;

}  // namespace

HttpClient::HttpClient(std::uint16_t port, HttpClientOptions opts)
    : port_(port), opts_(opts) {
  if (opts_.max_connections == 0) opts_.max_connections = 1;
}

HttpClient::~HttpClient() { close_all(); }

int HttpClient::connect_fresh() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  http::set_io_timeout(fd, opts_.io_timeout_ms);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int HttpClient::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return !idle_.empty() || outstanding_ < opts_.max_connections;
  });
  if (!idle_.empty()) {
    const int fd = idle_.back();
    idle_.pop_back();
    return fd;
  }
  ++outstanding_;
  return -1;  // slot reserved; caller connects fresh
}

void HttpClient::release(int fd, bool reusable) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd >= 0 && reusable) {
    idle_.push_back(fd);
  } else {
    if (fd >= 0) ::close(fd);
    --outstanding_;
  }
  cv_.notify_one();
}

void HttpClient::close_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : idle_) ::close(fd);
  outstanding_ -= idle_.size();
  idle_.clear();
  cv_.notify_all();
}

std::optional<ClientResponse> HttpClient::roundtrip(int fd,
                                                    const std::string& wire,
                                                    int timeout_ms) const {
  if (timeout_ms > 0) http::set_io_timeout(fd, timeout_ms);
  if (!http::send_all(fd, wire)) return std::nullopt;

  // Same framing rules as the server: the head read is capped per recv at
  // kMaxHeadBytes, and an overflowing Content-Length is rejected.
  std::string buf;
  if (!http::read_until(fd, buf, "\r\n\r\n", kMaxHeadBytes)) {
    return std::nullopt;
  }
  const http::Head head = http::split_head(buf);
  const std::vector<std::string> parts = split_ws(head.start_line);
  if (parts.size() < 2 || !starts_with(parts[0], "HTTP/")) {
    return std::nullopt;
  }
  const long long status = http::parse_digits(parts[1]);
  if (status < 100 || status > 599) return std::nullopt;

  const long long content_length = http::content_length(head.headers);
  if (content_length < 0) return std::nullopt;  // transport requires it

  ClientResponse resp;
  resp.status = static_cast<int>(status);
  resp.keep_alive =
      http::header_value(head.headers, "connection") == "keep-alive";
  const long long retry_after =
      http::parse_digits(http::header_value(head.headers, "retry-after"));
  if (retry_after > 0) resp.retry_after_ms = retry_after * 1000;

  const std::size_t end =
      head.body_start + static_cast<std::size_t>(content_length);
  if (buf.size() > end) return std::nullopt;  // pipelined garbage
  if (!http::read_to_size(fd, buf, end)) return std::nullopt;
  resp.body = buf.substr(head.body_start);
  return resp;
}

std::optional<ClientResponse> HttpClient::request(const std::string& method,
                                                  const std::string& path,
                                                  const std::string& body,
                                                  int timeout_ms) {
  std::string wire = method + " " + path + " HTTP/1.1\r\nHost: l\r\n";
  wire += "Connection: keep-alive\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;

  int fd = acquire();
  bool reused = fd >= 0;
  if (!reused) {
    fd = connect_fresh();
    if (fd < 0) {
      release(-1, false);
      return std::nullopt;
    }
  }
  std::optional<ClientResponse> resp = roundtrip(fd, wire, timeout_ms);
  if (!resp.has_value() && reused) {
    // The server may have recycled this idle connection between our acquire
    // and the send (bounded requests-per-connection, idle timeout). That is
    // not shard evidence — retry exactly once on a fresh socket.
    ::close(fd);
    fd = connect_fresh();
    if (fd < 0) {
      release(-1, false);
      return std::nullopt;
    }
    resp = roundtrip(fd, wire, timeout_ms);
  }
  const bool reusable = resp.has_value() && resp->keep_alive;
  if (resp.has_value()) {
    release(fd, reusable);
  } else {
    ::close(fd);
    release(-1, false);
  }
  return resp;
}

}  // namespace rca::fleet
