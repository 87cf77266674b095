// HTTP/1.1 framing shared by the service's server transport and the
// fleet's client: socket send/recv loops, bounded head reads, and header
// parsing. Both peers frame messages the same way — a head terminated by
// CRLF CRLF, then exactly Content-Length body bytes — so both use these
// functions and apply the same limits.
//
// Every loop retries on EINTR (a signal mid-read must not kill a
// connection) and caps each recv so a buffer never grows past its limit.
// Readers take the recv to use as a plain function pointer: the server
// passes one that carries its fault-injection site, the client the plain
// recv_retry.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <string_view>

namespace rca::http {

/// recv(2) with EINTR retry.
ssize_t recv_retry(int fd, char* buf, std::size_t cap);

using RecvFn = ssize_t (*)(int fd, char* buf, std::size_t cap);

/// Sets both the receive and the send timeout of socket `fd`.
void set_io_timeout(int fd, int timeout_ms);

/// send(2)s all of `data` (MSG_NOSIGNAL, EINTR retry); false on error.
bool send_all(int fd, std::string_view data);

/// Reads into `buf` until it contains `terminator`. False on EOF, error, or
/// once more than `limit` bytes accumulate without it: each recv is capped
/// to the bytes still within budget, so `buf` never grows past limit + 1
/// (the +1 byte is what proves the head is oversized).
bool read_until(int fd, std::string& buf, const char* terminator,
                std::size_t limit, RecvFn recv = recv_retry);

/// Reads until `buf` holds `size` bytes. Each recv is capped at the bytes
/// still missing, so nothing past `size` is consumed. False on EOF/error.
bool read_to_size(int fd, std::string& buf, std::size_t size,
                  RecvFn recv = recv_retry);

/// A message head split at the first line. `buf` must contain CRLF CRLF.
struct Head {
  std::string start_line;  // request or status line
  std::string headers;     // the header lines, CRLF-separated
  std::size_t body_start = 0;  // offset of the body in `buf`
};
Head split_head(const std::string& buf);

/// Value of the first header named `name` (case-insensitive), trimmed and
/// lower-cased; empty when absent.
std::string header_value(const std::string& headers, const char* name);

/// A non-negative decimal integer; -1 when `s` is empty, contains a
/// non-digit, or overflows long long.
long long parse_digits(std::string_view s);

/// Content-Length of a header block: -1 when absent, -2 when present but
/// empty, malformed or too large for long long.
long long content_length(const std::string& headers);

}  // namespace rca::http
