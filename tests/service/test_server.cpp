// Socket-level tests of the `istc serve` transport: serve() runs on its own
// thread over a per-process Unix-domain socket, and raw peers talk to it
// the way a misbehaving or an ordinary client would.

#include "service/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "service/json.hpp"
#include "service/protocol.hpp"

namespace istc::service {
namespace {

/// A raw peer.  Reads time out after 10 s, so a server that never answers
/// fails the test instead of hanging it.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Everything the server sends until it closes.  A server that closes with
/// part of our request still unread reports one ECONNRESET after its data;
/// the read after that is end-of-file.
std::string read_to_eof(int fd) {
  std::string in;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return in;
    if (n < 0) {
      if (errno == EINTR || errno == ECONNRESET) continue;
      ADD_FAILURE() << "recv (no reply or no close within the timeout?): "
                    << std::strerror(errno);
      return in;
    }
    in.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Send `request` from a fresh raw peer; return all the server sends
/// before it closes.
std::string round_trip(const std::string& path, const std::string& request) {
  const int fd = connect_unix(path);
  if (fd < 0) {
    ADD_FAILURE() << "connect: " << std::strerror(errno);
    return {};
  }
  const ssize_t sent =
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  EXPECT_EQ(sent, static_cast<ssize_t>(request.size()));
  std::string in = read_to_eof(fd);
  ::close(fd);
  return in;
}

/// Lines of /proc/self/maps: one per mapping of this process.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

std::string op_of(const std::string& reply) {
  const ParseResult parsed = parse(reply);
  EXPECT_TRUE(parsed.ok()) << reply;
  return parsed.value.str_or("op", "");
}

/// serve() on a background thread over a per-process socket path;
/// `served_` turns true when it returns.  TearDown stops it through the
/// session unless the test already did so over the socket.
class ServerSocket : public ::testing::Test {
 protected:
  static SessionConfig ross() {
    SessionConfig cfg;
    cfg.site = cluster::Site::kRoss;
    return cfg;
  }

  void TearDown() override {
    if (!serving_.joinable()) return;
    session_.handle_line(R"({"op":"shutdown"})");
    serving_.join();
  }

  Session session_{ross()};
  Endpoint endpoint_{.unix_path = ::testing::TempDir() + "/istc_server_" +
                                  std::to_string(::getpid()) + ".sock"};
  Server server_{session_, endpoint_};
  std::atomic<bool> served_{false};
  std::thread serving_{[this] {
    server_.serve();
    served_.store(true);
  }};
};

TEST_F(ServerSocket, OverlongLineGetsOneErrorThenEof) {
  // 70 KiB with no newline: past kMaxLineBytes, so the daemon must stop
  // buffering, answer once, and hang up.
  const std::string junk(70 * 1024, 'x');
  ASSERT_GT(junk.size(), kMaxLineBytes);
  const std::string in = round_trip(endpoint_.unix_path, junk);
  ASSERT_FALSE(in.empty());
  EXPECT_EQ(in.find('\n'), in.size() - 1) << "exactly one reply line: " << in;
  const ParseResult parsed = parse(in.substr(0, in.size() - 1));
  ASSERT_TRUE(parsed.ok()) << in;
  EXPECT_EQ(parsed.value.str_or("op", ""), "error");
  const Value* error = parsed.value.find("error");
  ASSERT_NE(error, nullptr) << in;
  EXPECT_EQ(error->str_or("code", ""), "line_too_long");

  // A fresh peer is still served.
  const auto status = ask(endpoint_, {R"({"op":"status"})"});
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(op_of(status[0]), "status");

  // shutdown makes serve() return; the join would hang otherwise.
  const auto bye = ask(endpoint_, {R"({"op":"shutdown"})"});
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(op_of(bye[0]), "shutdown");
  serving_.join();
}

TEST_F(ServerSocket, OverlongHttpRequestLineGets414) {
  const std::string overlong =
      round_trip(endpoint_.unix_path, "GET /" + std::string(70 * 1024, 'x'));
  EXPECT_EQ(overlong.rfind("HTTP/1.1 414 ", 0), 0u) << overlong;
  // A scrape of ordinary length is still answered.
  const std::string scrape =
      round_trip(endpoint_.unix_path, "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(scrape.rfind("HTTP/1.1 200 ", 0), 0u) << scrape;
}

TEST_F(ServerSocket, ShutdownReturnsWithAnIdlePeer) {
  // A peer that connects and then neither sends nor closes.  The listener
  // accepts in connection order, so the idle peer has its connection
  // thread before the shutdown below is read.
  const int idle = connect_unix(endpoint_.unix_path);
  ASSERT_GE(idle, 0) << std::strerror(errno);
  const auto bye = ask(endpoint_, {R"({"op":"shutdown"})"});
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(op_of(bye[0]), "shutdown");
  // serve() must return while the idle peer stays connected.  Waiting
  // with a deadline and closing the peer before the join turns a server
  // that waits on it into a failure rather than a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!served_.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served_.load()) << "serve() still waits on the idle peer";
  ::close(idle);
  serving_.join();
}

TEST_F(ServerSocket, FinishedConnectionsAreReaped) {
  // Each connection runs on its own thread.  A finished thread that is
  // never joined keeps its stack (and guard page) mapped, so 200
  // sequential one-query peers would add about 400 mappings.  The warm-up
  // lets the process reach its steady mapping count first: the thread
  // sanitizer's runtime maps a fixed set of regions over its first few
  // dozen threads, joined or not.
  const auto status = [this] {
    const auto reply = ask(endpoint_, {R"({"op":"status"})"});
    ASSERT_EQ(reply.size(), 1u);
  };
  for (int i = 0; i < 50; ++i) status();
  const std::size_t before = mapping_count();
  for (int i = 0; i < 200; ++i) status();
  EXPECT_LT(mapping_count(), before + 50);
}

}  // namespace
}  // namespace istc::service
