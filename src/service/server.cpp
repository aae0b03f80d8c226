#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "service/protocol.hpp"

namespace istc::service {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int make_listener(const Endpoint& endpoint) {
  if (!endpoint.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + endpoint.unix_path);
    }
    std::strncpy(addr.sun_path, endpoint.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    ::unlink(endpoint.unix_path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
        0) {
      ::close(fd);
      fail("bind " + endpoint.unix_path);
    }
    if (::listen(fd, 64) < 0) {
      ::close(fd);
      fail("listen");
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(endpoint.tcp_port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    fail("bind port " + std::to_string(endpoint.tcp_port));
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    fail("listen");
  }
  return fd;
}

int connect_to(const Endpoint& endpoint) {
  if (!endpoint.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + endpoint.unix_path);
    }
    std::strncpy(addr.sun_path, endpoint.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
        0) {
      ::close(fd);
      fail("connect " + endpoint.unix_path);
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(endpoint.tcp_port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    fail("connect port " + std::to_string(endpoint.tcp_port));
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// "GET /metrics HTTP/1.1" (or any first line starting "GET ") marks an
/// HTTP scrape rather than an NDJSON peer.  One request, one response,
/// close — exactly what a Prometheus scraper does.
bool looks_like_http(const std::string& buffer) {
  return buffer.rfind("GET ", 0) == 0;
}

std::string http_response(int code, std::string_view status,
                          std::string_view content_type, std::string body) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " +
                    std::string(status) + "\r\nContent-Type: " +
                    std::string(content_type) +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

Server::Server(Session& session, const Endpoint& endpoint)
    : session_(session), endpoint_(endpoint) {
  listen_fd_ = make_listener(endpoint_);
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  reap(true);
  if (!endpoint_.unix_path.empty()) ::unlink(endpoint_.unix_path.c_str());
}

void Server::reap(bool all) {
  if (all) {
    // Ends the recv of a peer that neither sends nor closes.  SHUT_RD
    // leaves the write side open, so a reply being written (the shutdown
    // acknowledgement among them) still goes out.
    for (const Connection& c : connections_) ::shutdown(c.fd, SHUT_RD);
  }
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (all || it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      ::close(it->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::serve() {
  while (!session_.shutdown_requested()) {
    // A finished thread keeps its stack mapped until it is joined.
    reap(false);
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    if (ready == 0) continue;  // timeout: re-check the shutdown flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      fail("accept");
    }
    Connection& c = connections_.emplace_back();
    c.fd = fd;
    c.thread = std::thread([this, &c] {
      handle_connection(c.fd);
      // The peer reads end-of-file now; reap() closes the fd.
      ::shutdown(c.fd, SHUT_RDWR);
      c.done.store(true, std::memory_order_release);
    });
  }
  reap(true);
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  bool sniffed = false;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (!sniffed && buffer.size() >= 4) {
      sniffed = true;
      if (looks_like_http(buffer)) {
        // Wait for the end of the request line, answer, close.  Headers
        // and body (GETs have none) are ignored.
        std::size_t eol = buffer.find('\n');
        while (eol == std::string::npos && buffer.size() <= kMaxLineBytes) {
          const ssize_t m = ::recv(fd, chunk, sizeof chunk, 0);
          if (m < 0 && errno == EINTR) continue;
          if (m <= 0) break;
          buffer.append(chunk, static_cast<std::size_t>(m));
          eol = buffer.find('\n');
        }
        const std::size_t sp = buffer.find(' ', 4);
        const std::string path = buffer.substr(4, sp == std::string::npos
                                                      ? std::string::npos
                                                      : sp - 4);
        if (std::min(eol, buffer.size()) > kMaxLineBytes) {
          send_all(fd, http_response(414, "URI Too Long", "text/plain",
                                     "request line too long\n"));
        } else if (path == "/metrics") {
          send_all(fd, http_response(200, "OK",
                                     "text/plain; version=0.0.4",
                                     session_.prometheus_text()));
        } else {
          send_all(fd, http_response(404, "Not Found", "text/plain",
                                     "only /metrics is served here\n"));
        }
        return;
      }
    }
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      // An over-long line stays buffered and trips the cap check below.
      if (nl - start > kMaxLineBytes) break;
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) {
        if (!send_all(fd, session_.handle_line(line) + "\n")) {
          open = false;
          break;
        }
      }
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (open && buffer.size() > kMaxLineBytes) {
      send_all(fd, error_reply("error", "line_too_long",
                               "request line exceeds " +
                                   std::to_string(kMaxLineBytes) + " bytes") +
                       "\n");
      open = false;
    }
  }
  // A final unterminated line still gets an answer (clients that close
  // without a trailing newline).
  if (open && !buffer.empty()) {
    send_all(fd, session_.handle_line(buffer) + "\n");
  }
}

std::vector<std::string> ask(const Endpoint& endpoint,
                             const std::vector<std::string>& requests) {
  const int fd = connect_to(endpoint);
  std::string out;
  for (const std::string& r : requests) {
    out += r;
    out += '\n';
  }
  if (!send_all(fd, out)) {
    ::close(fd);
    throw std::runtime_error("ask: send failed");
  }
  ::shutdown(fd, SHUT_WR);
  std::string in;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    in.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::vector<std::string> replies;
  std::size_t start = 0;
  for (std::size_t nl = in.find('\n', start); nl != std::string::npos;
       nl = in.find('\n', start)) {
    replies.emplace_back(in.substr(start, nl - start));
    start = nl + 1;
  }
  if (start < in.size()) replies.emplace_back(in.substr(start));
  return replies;
}

}  // namespace istc::service
