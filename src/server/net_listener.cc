#include "server/net_listener.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/http.h"

namespace sqp {
namespace server {

NetListener::~NetListener() { Stop(); }

Status NetListener::Start(int port, Handler handler,
                          NetListenerOptions options) {
  if (serving_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("listener is already serving");
  }
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port out of range: " +
                                   std::to_string(port));
  }
  if (!handler) {
    return Status::InvalidArgument("listener needs a connection handler");
  }
  if (options.max_concurrent <= 0) {
    return Status::InvalidArgument("max_concurrent must be positive, got " +
                                   std::to_string(options.max_concurrent));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, options.backlog > 0 ? options.backlog : 16) < 0) {
    Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  handler_ = std::move(handler);
  options_ = options;
  listen_fd_ = fd;
  accepted_.store(0, std::memory_order_relaxed);
  overflowed_.store(0, std::memory_order_relaxed);
  stop_requested_.store(false, std::memory_order_relaxed);
  serving_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void NetListener::Stop() {
  if (!serving_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  // shutdown() wakes the blocked accept(); close() alone may not.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Kick every in-flight connection off its socket so handlers blocked
  // in recv/send return promptly, then join and close them all. The fds
  // are still open (the listener owns them), so there is no reuse race.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, conn] : conns_) ::shutdown(conn.fd, SHUT_RDWR);
  }
  for (;;) {
    std::map<uint64_t, Conn> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished.swap(conns_);
      done_ids_.clear();
    }
    if (finished.empty()) break;
    for (auto& [id, conn] : finished) {
      if (conn.thread.joinable()) conn.thread.join();
      ::close(conn.fd);
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  serving_.store(false, std::memory_order_release);
}

void NetListener::ReapLocked() {
  for (uint64_t id : done_ids_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    if (it->second.thread.joinable()) it->second.thread.join();
    ::close(it->second.fd);
    conns_.erase(it);
  }
  done_ids_.clear();
}

void NetListener::AcceptLoop() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or a hard error): exit the loop.
    }
    // Bound both directions before the handler ever touches the socket.
    if (options_.recv_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options_.recv_timeout_ms / 1000;
      tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    if (options_.send_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options_.send_timeout_ms / 1000;
      tv.tv_usec = (options_.send_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }

    std::lock_guard<std::mutex> lock(mu_);
    ReapLocked();
    if (active_.load(std::memory_order_relaxed) >= options_.max_concurrent) {
      overflowed_.fetch_add(1, std::memory_order_relaxed);
      if (!options_.overflow_response.empty()) {
        SendAll(fd, options_.overflow_response.data(),
                options_.overflow_response.size());
      }
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    uint64_t id = next_conn_id_++;
    Conn conn;
    conn.fd = fd;
    conn.thread = std::thread([this, fd, id] {
      handler_(fd);
      // Signal EOF to the peer now — close() itself waits for the reap
      // (so Stop() can never shutdown a reused fd number), but the peer
      // must not have to wait for the next accept to learn we're done.
      ::shutdown(fd, SHUT_RDWR);
      std::lock_guard<std::mutex> l(mu_);
      active_.fetch_sub(1, std::memory_order_relaxed);
      done_ids_.push_back(id);
    });
    conns_.emplace(id, std::move(conn));
  }
}

}  // namespace server
}  // namespace sqp
