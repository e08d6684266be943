#include "server/net/wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>

namespace clic::server::net {
namespace {

bool WriteAll(int fd, const char* data, std::size_t n, std::string* error) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      *error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

bool WireClient::Connect(const std::string& addr, std::uint16_t port) {
  Close();
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
    error_ = "unparseable address '" + addr + "'";
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    error_ = std::string("connect ") + addr + ":" + std::to_string(port) +
             ": " + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  seq_ = 0;
  parser_ = FrameParser(kWireMaxBatch);
  error_.clear();
  return true;
}

void WireClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint16_t WireClient::Call(const Request* reqs, std::size_t n) {
  if (fd_ < 0) {
    error_ = "not connected";
    return kWireConnClosed;
  }
  out_.clear();
  ++seq_;
  AppendBatchFrame(reqs, n, seq_, &out_);
  if (!WriteAll(fd_, out_.data(), out_.size(), &error_)) {
    Close();
    return kWireConnClosed;
  }
  // Block for the status reply, reassembling through the incremental
  // parser — a torn server write arrives as two reads and still decodes.
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("read: ") + std::strerror(errno);
      Close();
      return kWireConnClosed;
    }
    if (r == 0) {
      error_ = "connection closed before the reply";
      Close();
      return kWireConnClosed;
    }
    const std::uint8_t* p = buf;
    std::size_t len = static_cast<std::size_t>(r);
    const ParseStatus st = parser_.Consume(&p, &len, &reply_);
    if (st == ParseStatus::kNeedMore) continue;
    if (st == ParseStatus::kError) {
      error_ = "malformed reply frame: " + parser_.error();
      Close();
      return kWireConnClosed;
    }
    if (reply_.type == FrameType::kBatch) {
      error_ = "server sent a batch frame";
      Close();
      return kWireConnClosed;
    }
    // An error frame precedes a server-side close; hand the typed code
    // up and drop the connection now.
    if (reply_.type == FrameType::kError) Close();
    return reply_.code;
  }
}

namespace {

/// The wire port: one connection per client, WireClient::Call per
/// batch. A batch without a status reply is conn_lost (std::nullopt);
/// the port then reconnects once, and after a failed (re)connect every
/// later batch is conn_lost without being sent.
class WirePort final : public LoadPort {
 public:
  WirePort(const WireLoadOptions& options,
           std::atomic<std::uint64_t>* wire_errors)
      : options_(options), wire_errors_(wire_errors) {
    alive_ = client_.Connect(options_.addr, options_.port);
  }

  BatchOutcome Send(const Request* requests, std::size_t n) override {
    if (!alive_) return std::nullopt;
    const std::uint16_t code = client_.Call(requests, n);
    switch (code) {
      case kWireApplied: return SubmitResult::kApplied;
      case kWireShed: return SubmitResult::kShed;
      case kWireTimedOut: return SubmitResult::kTimedOut;
      case kWireExpired: return SubmitResult::kExpired;
      case kWireStopped: return SubmitResult::kStopped;
      default: break;
    }
    // A typed error frame (or server_busy) means the server did not
    // serve the batch and closed the connection.
    if (code != WireClient::kWireConnClosed) {
      wire_errors_->fetch_add(1, std::memory_order_relaxed);
    }
    if (!client_.connected()) {
      alive_ = client_.Connect(options_.addr, options_.port);
    }
    return std::nullopt;
  }

 private:
  const WireLoadOptions& options_;
  std::atomic<std::uint64_t>* wire_errors_;
  WireClient client_;
  bool alive_ = false;
};

}  // namespace

WireLoadResult RunWireLoad(const Trace& trace,
                           const WireLoadOptions& options) {
  LoadOptions load;
  load.clients = options.clients;
  load.batch_size = options.batch_size;
  load.request_budget = options.request_budget;
  std::atomic<std::uint64_t> wire_errors{0};
  WireLoadResult out;
  static_cast<LoadResult&>(out) =
      DriveLoad(trace, load, options.deterministic, [&](std::size_t) {
        return std::make_unique<WirePort>(options, &wire_errors);
      });
  out.wire_errors = wire_errors.load(std::memory_order_relaxed);
  return out;
}

}  // namespace clic::server::net
