// Blocking wire client for the network front end: connects to a
// NetServer (or anything speaking server/net/wire_format.h), sends
// batch frames, and reassembles status replies through the same
// incremental FrameParser the server uses — so torn writes and partial
// reads on either side are handled by construction, not by luck.
//
// RunWireLoad() replays a trace over the wire through the same load
// driver as server::ServeTrace (server::DriveLoad), with a port that
// calls WireClient::Call: the same chunking, batching, ledger and
// percentiles. Clients run sequentially in client order in
// deterministic mode (the wire replay of the strict-client-order
// stream the deterministic consumer expects), else one thread each.
#pragma once

#include <cstdint>
#include <string>

#include "core/trace.h"
#include "server/cache_server.h"
#include "server/net/wire_format.h"

namespace clic::server::net {

/// One blocking connection. Not thread-safe: each connection belongs to
/// one driver thread, mirroring the server's one-producer-per-port
/// contract.
class WireClient {
 public:
  WireClient() : parser_(kWireMaxBatch) {}
  ~WireClient() { Close(); }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects to addr:port (dotted-quad IPv4). Returns false and fills
  /// error() on failure.
  bool Connect(const std::string& addr, std::uint16_t port);

  /// Sends one batch frame and blocks for its status reply. Returns the
  /// wire code (kWireApplied..kWireStopped, or an error code >= 16 from
  /// an error frame). Returns kWireConnClosed on transport failure —
  /// connection reset, EOF mid-reply, or a malformed reply frame; in
  /// all those cases the connection is closed and error() explains.
  std::uint16_t Call(const Request* reqs, std::size_t n);

  void Close();
  bool connected() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  /// Sentinel for "the transport died" (distinct from every WireCode
  /// a frame can carry).
  static constexpr std::uint16_t kWireConnClosed = 0xFFFF;

 private:
  int fd_ = -1;
  std::uint64_t seq_ = 0;  // 1-based frame sequence on this connection
  std::string out_;        // encode scratch, reused per call
  FrameParser parser_;
  ParsedFrame reply_;
  std::string error_;
};

/// A wire run is one pass over the trace: it has no duration mode.
struct WireLoadOptions {
  std::string addr = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t clients = 1;
  std::size_t batch_size = 64;
  /// Caps how much of the trace is replayed (0 = all), with
  /// LoadOptions' chunking rule.
  std::uint64_t request_budget = 0;
  /// Drive client connections one after another in client id order
  /// (required for a bit-identical verify against PartitionedSimulate).
  bool deterministic = false;
};

/// The driver's result; its ledger's conn_lost bucket counts batches
/// whose reply never arrived because the transport died (e.g. under
/// net:reset) or a typed error frame closed the connection.
struct WireLoadResult : LoadResult {
  /// Typed error frames received (connection then closed by server).
  std::uint64_t wire_errors = 0;
};

/// Replays `trace` over the wire against addr:port. A client whose
/// batch got no status reconnects once; if that fails, its remaining
/// batches count as conn_lost unsent (so does every batch of a client
/// that cannot connect at all). Throws std::invalid_argument for zero
/// clients/batch_size.
WireLoadResult RunWireLoad(const Trace& trace, const WireLoadOptions& options);

}  // namespace clic::server::net
