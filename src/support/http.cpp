#include "support/http.hpp"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <optional>

#include "support/strings.hpp"

namespace rca::http {

namespace {

/// Trimmed, lower-cased value of the first `name` header; nullopt when no
/// line carries that header name.
std::optional<std::string> find_header(const std::string& headers,
                                       const char* name) {
  for (const std::string& line : split(headers, '\n')) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (to_lower(trim(line.substr(0, colon))) != name) continue;
    return to_lower(trim(line.substr(colon + 1)));
  }
  return std::nullopt;
}

}  // namespace

ssize_t recv_retry(int fd, char* buf, std::size_t cap) {
  ssize_t n;
  do {
    n = ::recv(fd, buf, cap, 0);
  } while (n < 0 && errno == EINTR);
  return n;
}

void set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n;
    do {
      n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_until(int fd, std::string& buf, const char* terminator,
                std::size_t limit, RecvFn recv) {
  char chunk[4096];
  for (;;) {
    if (buf.find(terminator) != std::string::npos) return true;
    if (buf.size() > limit) return false;
    const std::size_t cap = std::min(sizeof(chunk), limit + 1 - buf.size());
    const ssize_t n = recv(fd, chunk, cap);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool read_to_size(int fd, std::string& buf, std::size_t size, RecvFn recv) {
  char chunk[4096];
  while (buf.size() < size) {
    const std::size_t cap = std::min(sizeof(chunk), size - buf.size());
    const ssize_t n = recv(fd, chunk, cap);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

Head split_head(const std::string& buf) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  const std::string head = buf.substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  Head out;
  out.start_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  out.headers = line_end == std::string::npos ? "" : head.substr(line_end + 2);
  out.body_start = head_end + 4;
  return out;
}

std::string header_value(const std::string& headers, const char* name) {
  return find_header(headers, name).value_or("");
}

long long parse_digits(std::string_view s) {
  if (s.empty()) return -1;
  long long v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return -1;
    const long long digit = c - '0';
    if (v > (std::numeric_limits<long long>::max() - digit) / 10) return -1;
    v = v * 10 + digit;
  }
  return v;
}

long long content_length(const std::string& headers) {
  const std::optional<std::string> value =
      find_header(headers, "content-length");
  if (!value) return -1;
  const long long n = parse_digits(*value);
  return n < 0 ? -2 : n;
}

}  // namespace rca::http
