// ReqClient: blocking request/response client for the reqd wire protocol.
// One instance owns one TCP connection and is NOT thread-safe (a
// connection is a serial request pipe); concurrent callers each open
// their own client, which is also how the load generator and the E17
// bench model independent tenants.
//
// Server-side failures surface as ServiceError carrying the wire status;
// transport failures (connect/send/recv) and malformed responses throw
// std::runtime_error. A kQuotaExceeded answer throws the more specific
// QuotaExceededError: it is a definitive policy decision by the server,
// so the client NEVER retries it (retrying a full registry is pure
// load), and callers can catch the type to shed or re-route tenants.
//
// Self-healing: ClientOptions::reconnect_enabled arms bounded
// exponential-backoff reconnection. A client that lost its connection
// transparently redials before the next request, and IDEMPOTENT requests
// (queries, Ping, List, Snapshot, Flush) that die mid-flight are
// re-issued on the fresh connection. Append/Create/Drop are never
// silently re-sent: a lost ack does not reveal whether the server applied
// them, so the caller decides (the durable server's response.n makes
// Append reconciliation exact).
//
// Hostile-network posture (see service/chaos_proxy.h): every socket
// operation is deadline-bounded by the DeadlinePolicy -- Connect() uses
// a non-blocking connect + poll so a blackholed address fails in
// connect_timeout_ms instead of the kernel's minutes-long SYN schedule,
// and send/recv are bounded by request_timeout_ms (a timeout closes the
// connection, since a late response would desync the stream, and throws
// the typed DeadlineExceededError). Retries spend a wall-clock
// retry_budget_ms, not just an attempt count: backoff sleeps and
// redials all bill against it. A kOverloaded answer (the server
// shedding at its connection cap) is retryable for ANY opcode -- the
// server applied nothing -- but only after a backoff that doubles per
// answer: a shedding server is never hot-retried.
#ifndef REQSKETCH_SERVICE_REQ_CLIENT_H_
#define REQSKETCH_SERVICE_REQ_CLIENT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/socket_util.h"
#include "service/wire_protocol.h"
#include "util/validation.h"

namespace req {
namespace service {

// Backoff schedule for reconnection: attempt k sleeps a jittered
// interval in [b/2, b] with b = initial * 2^k capped at max_backoff_ms.
struct ReconnectPolicy {
  int max_attempts = 6;
  uint64_t initial_backoff_ms = 20;
  uint64_t max_backoff_ms = 2000;
};

// The server refused a CREATE on a tenancy quota (metric count or
// memory). Terminal for this request: backing off and retrying cannot
// succeed until an operator raises the limit or drops metrics, so the
// client surfaces it as its own type instead of a generic ServiceError.
struct QuotaExceededError : ServiceError {
  explicit QuotaExceededError(const std::string& message)
      : ServiceError(Status::kQuotaExceeded, message) {}
};

// The server shed this connection at its cap before any work ran.
// Retryable for every opcode (nothing was applied), but only after
// backoff -- RoundTrip handles that when reconnection is armed; callers
// see the type when the retry budget ran out too.
struct OverloadedError : ServiceError {
  explicit OverloadedError(const std::string& message)
      : ServiceError(Status::kOverloaded, message) {}
};

// A deadline fired: the server answered kDeadlineExceeded (its request
// budget spent; nothing mutated), or the client's own request timeout
// expired mid-round-trip (the connection is closed -- a late response
// would desync the stream). Not silently retried: the caller owns the
// deadline trade-off.
struct DeadlineExceededError : ServiceError {
  explicit DeadlineExceededError(const std::string& message)
      : ServiceError(Status::kDeadlineExceeded, message) {}
};

// Socket deadlines and the retry budget. All 0 values mean "unbounded",
// preserving the pre-deadline behavior.
struct DeadlinePolicy {
  // Bound on the TCP connect (initial Connect() AND every redial).
  uint64_t connect_timeout_ms = 5000;
  // Bound on one full round trip (send + await response). 0 keeps the
  // legacy block-forever behavior.
  uint64_t request_timeout_ms = 0;
  // Wall-clock budget for one logical request INCLUDING retries,
  // backoff sleeps, and redials. 0 = bounded by attempt counts only.
  uint64_t retry_budget_ms = 0;
  // First backoff after a kOverloaded answer; doubles per answer up to
  // the cap. Never 0 in effect: an overloaded server is never
  // hot-retried (0 falls back to 1ms).
  uint64_t overloaded_backoff_ms = 50;
  uint64_t max_overloaded_backoff_ms = 2000;
};

// Everything configurable about a client in one bundle, passed at
// Connect(): deadlines plus the reconnect switch and its policy. It is
// the only way to configure a client, so a caller can never connect with
// half its knobs set.
struct ClientOptions {
  DeadlinePolicy deadlines;
  ReconnectPolicy reconnect;
  bool reconnect_enabled = false;
};

class ReqClient {
 public:
  ReqClient() = default;
  ReqClient(ReqClient&&) = default;
  ReqClient& operator=(ReqClient&&) = default;

  // Connects to host:port; throws runtime_error on failure. Bounded by
  // deadlines().connect_timeout_ms -- a non-blocking connect + poll, so
  // a blackholed address (dropped SYNs, a full accept queue) fails fast
  // instead of riding the kernel retry schedule. The fd stays
  // non-blocking; all client I/O is poll-driven.
  void Connect(const std::string& host, uint16_t port) {
    util::CheckState(!fd_.valid(), "client already connected");
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw std::runtime_error(ErrnoMessage("socket"));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = ParseIPv4(host);
    addr.sin_port = htons(port);
    std::string error;
    if (!ConnectDeadline(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr), options_.deadlines.connect_timeout_ms,
                         &error)) {
      throw std::runtime_error(error);
    }
    SetNoDelay(fd.get());
    // Fresh decoder per connection: leftover bytes from a previous
    // connection's partial response would desync the new stream.
    decoder_ = FrameDecoder();
    fd_ = std::move(fd);
    host_ = host;
    port_ = port;
  }

  // Connects with the full option bundle installed first, so the dial
  // itself already runs under options.deadlines and reconnection (when
  // enabled) is armed from the very first request.
  void Connect(const std::string& host, uint16_t port,
               const ClientOptions& options) {
    util::CheckArg(!options.reconnect_enabled ||
                       options.reconnect.max_attempts > 0,
                   "max_attempts must be > 0");
    options_ = options;
    Connect(host, port);
  }

  bool connected() const { return fd_.valid(); }
  void Close() {
    fd_.Reset();
    decoder_ = FrameDecoder();
  }

  const DeadlinePolicy& deadlines() const { return options_.deadlines; }

  // The full option bundle currently in effect.
  const ClientOptions& options() const { return options_; }

  // Successful redials performed so far (tests and monitoring).
  uint64_t Reconnects() const { return reconnects_; }

  // kOverloaded answers absorbed (each either retried after backoff or
  // surfaced as OverloadedError).
  uint64_t OverloadedAnswers() const { return overloaded_answers_; }

  // Client-side request timeouts (each closed the connection and threw
  // DeadlineExceededError).
  uint64_t DeadlineTimeouts() const { return deadline_timeouts_; }

  // CREATEs the server refused on a quota (each threw
  // QuotaExceededError; none was retried).
  uint64_t QuotaRejections() const { return quota_rejections_; }

  // Wall-clock microseconds of the most recent completed round trip
  // (send to parsed response, excluding redials). An append that lands
  // on an evicted metric pays its rehydration here -- this is how the
  // churn bench and operators observe eviction-rehydrate latency from
  // the client side.
  uint64_t LastRttUs() const { return last_rtt_us_; }

  // --- protocol operations (each is one round trip) ------------------------

  // Returns the server's protocol version.
  uint8_t Ping() {
    Request request;
    request.op = Opcode::kPing;
    return RoundTrip(request).protocol_version;
  }

  void Create(const std::string& metric, const MetricSpec& spec) {
    Request request;
    request.op = Opcode::kCreate;
    request.metric = metric;
    request.spec = spec;
    RoundTrip(request);
  }

  // Appends a batch; returns the metric's accepted-item total.
  uint64_t Append(const std::string& metric, const double* data,
                  size_t count) {
    Request request;
    request.op = Opcode::kAppend;
    request.metric = metric;
    request.values.assign(data, data + count);
    return RoundTrip(request).n;
  }
  uint64_t Append(const std::string& metric,
                  const std::vector<double>& values) {
    return Append(metric, values.data(), values.size());
  }

  uint64_t Flush(const std::string& metric) {
    Request request;
    request.op = Opcode::kFlush;
    request.metric = metric;
    return RoundTrip(request).n;
  }

  std::vector<uint64_t> GetRanks(
      const std::string& metric, const std::vector<double>& ys,
      Criterion criterion = Criterion::kInclusive) {
    Request request;
    request.op = Opcode::kRank;
    request.metric = metric;
    request.criterion = criterion;
    request.values = ys;
    return RoundTrip(request).ranks;
  }

  std::vector<double> GetQuantiles(
      const std::string& metric, const std::vector<double>& qs,
      Criterion criterion = Criterion::kInclusive) {
    Request request;
    request.op = Opcode::kQuantiles;
    request.metric = metric;
    request.criterion = criterion;
    request.values = qs;
    return RoundTrip(request).values;
  }

  std::vector<double> GetCDF(
      const std::string& metric, const std::vector<double>& splits,
      Criterion criterion = Criterion::kInclusive) {
    Request request;
    request.op = Opcode::kCdf;
    request.metric = metric;
    request.criterion = criterion;
    request.values = splits;
    return RoundTrip(request).values;
  }

  // The engine's kind-tagged snapshot blob (see MetricEngine::Snapshot).
  std::vector<uint8_t> Snapshot(const std::string& metric) {
    Request request;
    request.op = Opcode::kSnapshot;
    request.metric = metric;
    return RoundTrip(request).blob;
  }

  std::vector<std::string> List() {
    Request request;
    request.op = Opcode::kList;
    return RoundTrip(request).names;
  }

  // v2 paged LIST: names matching `prefix` (empty = all), skipping
  // `offset` matches, at most `limit` per page (0 = no limit). *total
  // (optional) receives the full match count. Requires a v2 server.
  std::vector<std::string> List(const std::string& prefix, uint64_t offset,
                                uint64_t limit, uint64_t* total = nullptr) {
    Request request;
    request.op = Opcode::kList;
    request.list_paged = true;
    request.list_prefix = prefix;
    request.list_offset = offset;
    request.list_limit = limit;
    Response response = RoundTrip(request);
    if (total != nullptr) *total = response.total;
    return std::move(response.names);
  }

  void Drop(const std::string& metric) {
    Request request;
    request.op = Opcode::kDrop;
    request.metric = metric;
    RoundTrip(request);
  }

  // The server's monitoring counters as (name, value) pairs -- the
  // kStats opcode (requires a v3 server). Key set may grow; consumers
  // look names up instead of indexing.
  std::vector<std::pair<std::string, uint64_t>> Stats() {
    Request request;
    request.op = Opcode::kStats;
    return RoundTrip(request).stats;
  }

 private:
  // Re-sendable without observable effect: a lost ack leaves the caller
  // free to ask again. Append/Create/Drop mutate; see the class comment.
  static bool IsIdempotent(Opcode op) {
    switch (op) {
      case Opcode::kPing:
      case Opcode::kFlush:
      case Opcode::kRank:
      case Opcode::kQuantiles:
      case Opcode::kCdf:
      case Opcode::kSnapshot:
      case Opcode::kList:
      case Opcode::kStats:
        return true;
      case Opcode::kCreate:
      case Opcode::kAppend:
      case Opcode::kDrop:
        return false;
    }
    return false;
  }

  Response RoundTrip(const Request& request) {
    // A torn-down connection (a previous call's transport failure, or a
    // restarted server) redials before sending anything -- safe for every
    // opcode, since no bytes of THIS request are in flight yet.
    if (!fd_.valid() && options_.reconnect_enabled && !host_.empty()) {
      Reconnect();
    }
    // One budget spans the whole logical request: attempts, backoff
    // sleeps, and redials all bill against it.
    const SocketDeadline budget =
        DeadlineAfterMs(options_.deadlines.retry_budget_ms);
    int attempt = 0;
    uint64_t overload_backoff_ms =
        std::max<uint64_t>(options_.deadlines.overloaded_backoff_ms, 1);
    while (true) {
      try {
        return RoundTripOnce(request);
      } catch (const OverloadedError&) {
        // The server shed us at its cap; it applied nothing, so ANY op
        // may retry -- but never hot: back off (doubling), stay inside
        // the retry budget, and redial (the shedding server closed us).
        if (!options_.reconnect_enabled ||
            ++attempt > options_.reconnect.max_attempts ||
            !BackoffWithinBudget(overload_backoff_ms, budget)) {
          throw;
        }
        overload_backoff_ms = std::min(
            overload_backoff_ms * 2, options_.deadlines.max_overloaded_backoff_ms);
      } catch (const ServiceError&) {
        throw;  // the server answered; the transport is fine
      } catch (const std::runtime_error&) {
        if (!options_.reconnect_enabled || !IsIdempotent(request.op) ||
            ++attempt > options_.reconnect.max_attempts ||
            SocketClock::now() >= budget) {
          throw;
        }
      }
      Reconnect();
    }
  }

  // Sleeps a jittered [b/2, b] interval, clamped so the sleep never
  // crosses the retry budget. False (no sleep) when the budget is
  // already spent -- the caller then surfaces the error instead of
  // retrying.
  bool BackoffWithinBudget(uint64_t backoff_ms, SocketDeadline budget) {
    uint64_t sleep_ms = std::max<uint64_t>(JitteredMs(backoff_ms), 1);
    if (budget != NoDeadline()) {
      const SocketClock::time_point now = SocketClock::now();
      if (now >= budget) return false;
      const uint64_t left = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(budget - now)
              .count());
      if (left == 0) return false;
      sleep_ms = std::min(sleep_ms, left);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    return true;
  }

  // A jittered draw from [b/2, b]: full-jitter style, so a fleet of
  // clients that lost the same server does not retry in lockstep.
  uint64_t JitteredMs(uint64_t backoff_ms) {
    jitter_state_ =
        jitter_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t half = backoff_ms / 2;
    return half + (jitter_state_ >> 33) % (half + 1);
  }

  // Redials host_:port_ with jittered exponential backoff; rethrows the
  // final connect error when the server stays down past max_attempts.
  void Reconnect() {
    util::CheckState(!host_.empty(), "no prior Connect to redo");
    uint64_t backoff_ms = options_.reconnect.initial_backoff_ms;
    for (int attempt = 0;; ++attempt) {
      Close();
      try {
        Connect(host_, port_);
        ++reconnects_;
        return;
      } catch (const std::runtime_error&) {
        if (attempt + 1 >= options_.reconnect.max_attempts) throw;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(JitteredMs(backoff_ms)));
      backoff_ms = std::min(backoff_ms * 2, options_.reconnect.max_backoff_ms);
    }
  }

  Response RoundTripOnce(const Request& request) {
    util::CheckState(fd_.valid(), "client not connected");
    const std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    // One deadline covers the whole round trip (send + response): a
    // throttled link cannot stretch a request past request_timeout_ms by
    // keeping each byte individually fast.
    const SocketDeadline deadline =
        DeadlineAfterMs(options_.deadlines.request_timeout_ms);
    std::vector<uint8_t> frame;
    AppendFrame(&frame, EncodeRequest(request));
    const IoStatus sent =
        SendAllDeadline(fd_.get(), frame.data(), frame.size(), deadline);
    if (sent != IoStatus::kOk) {
      // Either way bytes of this request may be stranded in flight:
      // the stream is unusable, drop it.
      Close();
      if (sent == IoStatus::kTimeout) {
        ++deadline_timeouts_;
        throw DeadlineExceededError("request timed out while sending");
      }
      throw std::runtime_error("connection lost while sending request");
    }
    std::vector<uint8_t> payload;
    uint8_t chunk[1 << 16];
    try {
      while (!decoder_.Next(&payload)) {
        ssize_t got = 0;
        const IoStatus received = RecvSomeDeadline(
            fd_.get(), chunk, sizeof(chunk), deadline, &got);
        if (received == IoStatus::kTimeout) {
          // A response that arrives after we stop waiting would desync
          // the stream; Close() below (via the catch) discards it with
          // the connection.
          ++deadline_timeouts_;
          throw DeadlineExceededError(
              "request timed out awaiting response");
        }
        if (received != IoStatus::kOk) {
          throw std::runtime_error(
              "connection closed while awaiting response");
        }
        decoder_.Feed(chunk, static_cast<size_t>(got));
      }
    } catch (...) {
      // Transport failure OR a corrupt length prefix: either way the
      // stream is unusable -- drop the connection and the buffered
      // garbage so a caller that catches and retries fails fast on
      // "not connected" instead of parsing a desynced stream.
      Close();
      throw;
    }
    Response response =
        ParseResponse(request.op, payload, request.list_paged);
    last_rtt_us_ = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (response.status != Status::kOk) {
      if (response.status == Status::kQuotaExceeded) {
        // Typed and counted, and (being a ServiceError) never retried by
        // RoundTrip: the server's quota decision is final.
        ++quota_rejections_;
        throw QuotaExceededError(response.error);
      }
      if (response.status == Status::kOverloaded) {
        // The shedding server closes right after this frame; drop our
        // side too so a retry starts from a clean redial.
        ++overloaded_answers_;
        Close();
        throw OverloadedError(response.error);
      }
      if (response.status == Status::kDeadlineExceeded) {
        // Server-side budget exhaustion. The connection is still in
        // sync (the server answered in-band), so keep it open.
        throw DeadlineExceededError(response.error);
      }
      throw ServiceError(response.status, response.error);
    }
    return response;
  }

  ScopedFd fd_;
  FrameDecoder decoder_;
  std::string host_;
  uint16_t port_ = 0;
  ClientOptions options_;
  uint64_t reconnects_ = 0;
  uint64_t quota_rejections_ = 0;
  uint64_t overloaded_answers_ = 0;
  uint64_t deadline_timeouts_ = 0;
  uint64_t last_rtt_us_ = 0;
  // Cheap LCG for backoff jitter; seeded per-instance so clients in one
  // process still spread out.
  uint64_t jitter_state_ = reinterpret_cast<uint64_t>(this) | 1;
};

}  // namespace service
}  // namespace req

#endif  // REQSKETCH_SERVICE_REQ_CLIENT_H_
