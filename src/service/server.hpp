#pragma once

#include <atomic>
#include <list>
#include <string>
#include <thread>
#include <vector>

#include "service/session.hpp"

/// \file server.hpp
/// The NDJSON socket transport around a Session.
///
/// One listener (Unix-domain path or loopback TCP port), one thread per
/// connection, one request line (at most kMaxLineBytes) in / one reply
/// line out.  All protocol logic lives in Session::handle_line, which
/// never throws — the transport only moves bytes.  The accept loop joins
/// each finished connection thread and closes its socket, so a long-lived
/// daemon holds stacks and descriptors only for open connections.  A
/// handled {"op":"shutdown"} makes serve() stop accepting, wake the
/// connections still waiting for a request, join them, and return.

namespace istc::service {

struct Endpoint {
  /// Unix-domain socket path; non-empty selects AF_UNIX.
  std::string unix_path;
  /// Loopback TCP port; used when unix_path is empty.
  int tcp_port = 0;
};

class Server {
 public:
  /// Bind and listen (throws std::runtime_error on socket failures; the
  /// CLI surfaces the message).  An existing file at unix_path is
  /// unlinked first — the daemon owns its socket path.
  Server(Session& session, const Endpoint& endpoint);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop; returns after a shutdown request has been handled and
  /// every connection thread has been joined, idle peers' included.
  void serve();

 private:
  /// One connection's socket and thread; `done` is set as the thread
  /// exits.  The server closes `fd` after the join, so it is never shut
  /// down or closed after the kernel has reused it.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void handle_connection(int fd);
  /// Join and close every connection (finished ones only unless `all`,
  /// which first wakes those still blocked reading).
  void reap(bool all);

  Session& session_;
  Endpoint endpoint_;
  int listen_fd_ = -1;
  /// A list, so a running thread's Connection never moves.
  std::list<Connection> connections_;
};

/// Client side (`istc ask`): connect to `endpoint`, send each request
/// line, and return one reply line per request.  Throws
/// std::runtime_error on connect/transport failure.
std::vector<std::string> ask(const Endpoint& endpoint,
                             const std::vector<std::string>& requests);

}  // namespace istc::service
